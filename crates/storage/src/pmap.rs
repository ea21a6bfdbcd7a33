//! A persistent ordered map implemented as an AVL tree with `Arc`-shared
//! nodes.
//!
//! Every mutating operation (`insert`, `remove`, ...) returns a *new* map
//! that shares all untouched subtrees with the original. Cloning a map is
//! O(1). This is the backbone of FDM relation functions and database
//! functions: a "snapshot" of a relation is just a clone of its root.
//!
//! The bulk set algebra (`merge_union` / `merge_intersection` /
//! `merge_difference`, their `_with` variants) and [`PMap::diff`] are
//! **join-based**: they are written on two primitives, `join` (glue two
//! trees of any heights around a middle entry) and `split` (cut a tree at
//! a key). Combining a small map (m entries) with a large one (n entries)
//! costs O(m · log(n/m + 1)), and the result *shares* every subtree of the
//! larger operand that the smaller one does not reach: a one-entry delta
//! against a million-entry relation allocates one root-to-leaf path, not a
//! million nodes.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// A node of the persistent AVL tree.
///
/// Nodes are immutable once created; rebalancing builds new nodes and reuses
/// (via `Arc`) everything that did not change.
struct Node<K, V> {
    key: K,
    val: V,
    left: Link<K, V>,
    right: Link<K, V>,
    /// Height of the subtree rooted here (leaf = 1).
    height: u8,
    /// Number of entries in the subtree rooted here (order statistics).
    size: usize,
}

type Link<K, V> = Option<Arc<Node<K, V>>>;

fn height<K, V>(link: &Link<K, V>) -> u8 {
    link.as_ref().map_or(0, |n| n.height)
}

fn size<K, V>(link: &Link<K, V>) -> usize {
    link.as_ref().map_or(0, |n| n.size)
}

impl<K: Clone, V: Clone> Node<K, V> {
    fn new(key: K, val: V, left: Link<K, V>, right: Link<K, V>) -> Arc<Self> {
        let height = 1 + height(&left).max(height(&right));
        let size = 1 + size(&left) + size(&right);
        Arc::new(Node {
            key,
            val,
            left,
            right,
            height,
            size,
        })
    }

    fn balance_factor(&self) -> i16 {
        height(&self.left) as i16 - height(&self.right) as i16
    }
}

/// Rebuild a subtree with the given children, restoring the AVL invariant
/// (|balance factor| <= 1) with at most two rotations.
fn balance<K: Clone, V: Clone>(
    key: K,
    val: V,
    left: Link<K, V>,
    right: Link<K, V>,
) -> Arc<Node<K, V>> {
    let bf = height(&left) as i16 - height(&right) as i16;
    if bf > 1 {
        let l = left.expect("bf > 1 implies left child");
        if l.balance_factor() >= 0 {
            // Left-left: single right rotation.
            let new_right = Node::new(key, val, l.right.clone(), right);
            Node::new(
                l.key.clone(),
                l.val.clone(),
                l.left.clone(),
                Some(new_right),
            )
        } else {
            // Left-right: double rotation through l.right.
            let lr = l
                .right
                .as_ref()
                .expect("bf < 0 implies right child")
                .clone();
            let new_left = Node::new(
                l.key.clone(),
                l.val.clone(),
                l.left.clone(),
                lr.left.clone(),
            );
            let new_right = Node::new(key, val, lr.right.clone(), right);
            Node::new(
                lr.key.clone(),
                lr.val.clone(),
                Some(new_left),
                Some(new_right),
            )
        }
    } else if bf < -1 {
        let r = right.expect("bf < -1 implies right child");
        if r.balance_factor() <= 0 {
            // Right-right: single left rotation.
            let new_left = Node::new(key, val, left, r.left.clone());
            Node::new(
                r.key.clone(),
                r.val.clone(),
                Some(new_left),
                r.right.clone(),
            )
        } else {
            // Right-left: double rotation through r.left.
            let rl = r.left.as_ref().expect("bf > 0 implies left child").clone();
            let new_left = Node::new(key, val, left, rl.left.clone());
            let new_right = Node::new(
                r.key.clone(),
                r.val.clone(),
                rl.right.clone(),
                r.right.clone(),
            );
            Node::new(
                rl.key.clone(),
                rl.val.clone(),
                Some(new_left),
                Some(new_right),
            )
        }
    } else {
        Node::new(key, val, left, right)
    }
}

/// Builds a height-balanced subtree from the next `n` in-order entries of
/// `it` (the O(n) half of [`PMap::from_sorted_vec`]). Splitting entries in
/// half at every level bounds the height by `ceil(log2(n + 1))` and keeps
/// every balance factor in `{-1, 0, 1}`.
fn build_balanced<K: Clone, V: Clone, I: Iterator<Item = (K, V)>>(
    it: &mut I,
    n: usize,
) -> Link<K, V> {
    if n == 0 {
        return None;
    }
    let left = build_balanced(it, n / 2);
    let (key, val) = it.next().expect("iterator holds n entries");
    let right = build_balanced(it, n - n / 2 - 1);
    Some(Node::new(key, val, left, right))
}

/// `true` when both links are the same subtree (or both empty).
fn same_link<K, V>(a: &Link<K, V>, b: &Link<K, V>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => Arc::ptr_eq(x, y),
        _ => false,
    }
}

/// Removes the minimum entry of a non-empty subtree, returning the
/// remaining subtree and the removed (key, value).
fn take_min<K: Clone, V: Clone>(n: &Arc<Node<K, V>>) -> (Link<K, V>, (K, V)) {
    match &n.left {
        None => (n.right.clone(), (n.key.clone(), n.val.clone())),
        Some(l) => {
            let (rest, min) = take_min(l);
            (
                Some(balance(n.key.clone(), n.val.clone(), rest, n.right.clone())),
                min,
            )
        }
    }
}

/// AVL **join**: the tree holding `left`, then `key -> val`, then `right`,
/// for trees of *any* heights (every key of `left` < `key` < every key of
/// `right` is the caller's contract). It descends the taller tree's inner
/// spine until the heights meet, so it allocates O(|height(left) −
/// height(right)| + 1) nodes and shares everything off that spine.
fn join<K: Clone, V: Clone>(
    left: Link<K, V>,
    key: K,
    val: V,
    right: Link<K, V>,
) -> Arc<Node<K, V>> {
    let (hl, hr) = (height(&left), height(&right));
    if hl > hr + 1 {
        let l = left.expect("taller than an empty tree");
        let inner = join(l.right.clone(), key, val, right);
        balance(l.key.clone(), l.val.clone(), l.left.clone(), Some(inner))
    } else if hr > hl + 1 {
        let r = right.expect("taller than an empty tree");
        let inner = join(left, key, val, r.left.clone());
        balance(r.key.clone(), r.val.clone(), Some(inner), r.right.clone())
    } else {
        Node::new(key, val, left, right)
    }
}

/// [`join`] without a middle entry: concatenates two trees whose key
/// ranges do not overlap.
fn join2<K: Clone, V: Clone>(left: Link<K, V>, right: Link<K, V>) -> Link<K, V> {
    match (left, right) {
        (left, None) => left,
        (None, right) => right,
        (left, Some(r)) => {
            let (rest, (key, val)) = take_min(&r);
            Some(join(left, key, val, rest))
        }
    }
}

/// A tree cut at a key: the entries below it, the node holding it (if
/// any), and the entries above it.
type Split<'a, K, V> = (Link<K, V>, Option<&'a Node<K, V>>, Link<K, V>);

/// AVL **split** of `link` at `key` — O(log n), sharing every subtree
/// that lies wholly on one side of `key`.
fn split<'a, K: Ord + Clone, V: Clone>(link: &'a Link<K, V>, key: &K) -> Split<'a, K, V> {
    let Some(n) = link else {
        return (None, None, None);
    };
    match key.cmp(&n.key) {
        Ordering::Equal => (n.left.clone(), Some(&**n), n.right.clone()),
        Ordering::Less => {
            let (below, hit, above) = split(&n.left, key);
            if hit.is_none() && below.is_none() {
                return (None, None, link.clone()); // the whole subtree is above
            }
            let above = join(above, n.key.clone(), n.val.clone(), n.right.clone());
            (below, hit, Some(above))
        }
        Ordering::Greater => {
            let (below, hit, above) = split(&n.right, key);
            if hit.is_none() && above.is_none() {
                return (link.clone(), None, None); // the whole subtree is below
            }
            let below = join(n.left.clone(), n.key.clone(), n.val.clone(), below);
            (Some(below), hit, above)
        }
    }
}

/// Which entries a [`merge`] keeps. `shared` decides the keys both sides
/// hold without looking at their values — `Some(true)` keeps the left
/// entry, `Some(false)` drops the key — or, when `None`, asks the
/// combiner. Only a rule with `shared: Some(_)` may skip pointer-equal
/// subtrees: a combiner must see every shared key.
#[derive(Clone, Copy)]
struct MergeRule {
    left_only: bool,
    right_only: bool,
    shared: Option<bool>,
}

impl MergeRule {
    const UNION: MergeRule = MergeRule::combining(true, true);
    const INTERSECTION: MergeRule = MergeRule::combining(false, false);
    const DIFFERENCE: MergeRule = MergeRule::combining(true, false);

    const fn combining(left_only: bool, right_only: bool) -> MergeRule {
        MergeRule {
            left_only,
            right_only,
            shared: None,
        }
    }

    /// The same rule with shared keys settled without the combiner.
    const fn keeping_shared(self, keep: bool) -> MergeRule {
        MergeRule {
            shared: Some(keep),
            ..self
        }
    }
}

/// What becomes of the pivot key once both halves are merged.
enum Pivot<K, V> {
    /// The pivot node's own entry survives unchanged.
    Keep,
    /// This entry stands at the pivot key.
    Put(K, V),
    /// No entry at the pivot key.
    Drop,
}

/// The pivot outcome for a key both operands hold (`l` is the left
/// operand's node, whose key the result carries).
fn shared_pivot<K: Clone, V: Clone>(
    rule: MergeRule,
    l: &Node<K, V>,
    r: &Node<K, V>,
    combine: &mut impl FnMut(&K, &V, &V) -> Option<V>,
) -> Pivot<K, V> {
    match rule.shared {
        Some(true) => Pivot::Put(l.key.clone(), l.val.clone()),
        Some(false) => Pivot::Drop,
        None => match combine(&l.key, &l.val, &r.val) {
            Some(v) => Pivot::Put(l.key.clone(), v),
            None => Pivot::Drop,
        },
    }
}

/// The one join-based routine behind union, intersection and difference
/// (Blelloch, Ferizovic & Sun, "Just Join for Parallel Ordered Sets"):
/// pivot on the root of the larger operand, [`split`] the smaller one
/// there, merge the two halves recursively and [`join`] the results. Work
/// is O(m · log(n/m + 1)). A half the smaller operand does not reach comes
/// back as the larger operand's own `Arc`, and a pivot whose entry and
/// children are untouched comes back as the pivot node itself. `combine(key,
/// left_value, right_value)` runs once per shared key, in ascending key
/// order (left half, pivot, right half).
fn merge<K: Ord + Clone, V: Clone>(
    a: &Link<K, V>,
    b: &Link<K, V>,
    rule: MergeRule,
    combine: &mut impl FnMut(&K, &V, &V) -> Option<V>,
) -> Link<K, V> {
    let (na, nb) = match (a, b) {
        (None, _) => return if rule.right_only { b.clone() } else { None },
        (_, None) => return if rule.left_only { a.clone() } else { None },
        (Some(na), Some(nb)) => (na, nb),
    };
    if Arc::ptr_eq(na, nb) {
        return match rule.shared {
            Some(true) => a.clone(),
            Some(false) => None,
            // a combiner over one shared subtree: nothing to split, the
            // node's children pair up as they are
            None => merge_around(na, true, &na.left, Some(na), &na.right, rule, combine),
        };
    }
    if na.size >= nb.size {
        let (below, hit, above) = split(b, &na.key);
        merge_around(na, true, &below, hit, &above, rule, combine)
    } else {
        let (below, hit, above) = split(a, &nb.key);
        merge_around(nb, false, &below, hit, &above, rule, combine)
    }
}

/// One [`merge`] step: `node` is the pivot, taken from the left operand
/// when `node_is_left`, and `below` / `hit` / `above` are the other operand
/// split at the pivot's key.
fn merge_around<K: Ord + Clone, V: Clone>(
    node: &Arc<Node<K, V>>,
    node_is_left: bool,
    below: &Link<K, V>,
    hit: Option<&Node<K, V>>,
    above: &Link<K, V>,
    rule: MergeRule,
    combine: &mut impl FnMut(&K, &V, &V) -> Option<V>,
) -> Link<K, V> {
    // (left operand's half, right operand's half)
    let sides = |mine, theirs| {
        if node_is_left {
            (mine, theirs)
        } else {
            (theirs, mine)
        }
    };
    let (l, r) = sides(&node.left, below);
    let left = merge(l, r, rule, combine);
    let keep_alone = if node_is_left {
        rule.left_only
    } else {
        rule.right_only
    };
    let pivot = match hit {
        None if keep_alone => Pivot::Keep,
        None => Pivot::Drop,
        Some(_) if node_is_left && rule.shared == Some(true) => Pivot::Keep,
        Some(h) if node_is_left => shared_pivot(rule, node, h, combine),
        Some(h) => shared_pivot(rule, h, node, combine),
    };
    let (l, r) = sides(&node.right, above);
    let right = merge(l, r, rule, combine);
    match pivot {
        Pivot::Keep if same_link(&left, &node.left) && same_link(&right, &node.right) => {
            Some(node.clone())
        }
        Pivot::Keep => Some(join(left, node.key.clone(), node.val.clone(), right)),
        Pivot::Put(key, val) => Some(join(left, key, val, right)),
        Pivot::Drop => join2(left, right),
    }
}

/// A persistent (immutable, structurally shared) ordered map.
///
/// * `clone` is O(1) and shares the whole tree.
/// * `insert` / `remove` are O(log n) time and allocation and return a new
///   map; the receiver is unchanged.
/// * Iteration is in key order.
///
/// # Examples
///
/// ```
/// use fdm_storage::PMap;
///
/// let m0: PMap<i64, &str> = PMap::new();
/// let m1 = m0.insert(1, "one").0;
/// let m2 = m1.insert(2, "two").0;
/// // m1 is an unchanged snapshot:
/// assert_eq!(m1.len(), 1);
/// assert_eq!(m2.get(&2), Some(&"two"));
/// assert_eq!(m1.get(&2), None);
/// ```
pub struct PMap<K, V> {
    root: Link<K, V>,
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap { root: None }
    }
}

impl<K, V> PMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        size(&self.root)
    }

    /// `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Height of the underlying tree (diagnostics; 0 for an empty map).
    pub fn tree_height(&self) -> usize {
        height(&self.root) as usize
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// Looks up `key`, returning a reference to its value if present.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            match key.cmp(n.key.borrow()) {
                Ordering::Less => cur = n.left.as_deref(),
                Ordering::Greater => cur = n.right.as_deref(),
                Ordering::Equal => return Some(&n.val),
            }
        }
        None
    }

    /// [`Self::get`] returning the stored key too (which may differ from
    /// `key` in representation while comparing equal).
    pub fn get_key_value<Q>(&self, key: &Q) -> Option<(&K, &V)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            match key.cmp(n.key.borrow()) {
                Ordering::Less => cur = n.left.as_deref(),
                Ordering::Greater => cur = n.right.as_deref(),
                Ordering::Equal => return Some((&n.key, &n.val)),
            }
        }
        None
    }

    /// `true` if `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Returns the entry with the smallest key.
    pub fn first(&self) -> Option<(&K, &V)> {
        let mut cur = self.root.as_deref()?;
        while let Some(l) = cur.left.as_deref() {
            cur = l;
        }
        Some((&cur.key, &cur.val))
    }

    /// Returns the entry with the largest key.
    pub fn last(&self) -> Option<(&K, &V)> {
        let mut cur = self.root.as_deref()?;
        while let Some(r) = cur.right.as_deref() {
            cur = r;
        }
        Some((&cur.key, &cur.val))
    }

    /// Returns the `i`-th entry in key order (0-based), using subtree sizes.
    pub fn nth(&self, mut i: usize) -> Option<(&K, &V)> {
        if i >= self.len() {
            return None;
        }
        let mut cur = self.root.as_deref()?;
        loop {
            let ls = size(&cur.left);
            match i.cmp(&ls) {
                Ordering::Less => cur = cur.left.as_deref()?,
                Ordering::Equal => return Some((&cur.key, &cur.val)),
                Ordering::Greater => {
                    i -= ls + 1;
                    cur = cur.right.as_deref()?;
                }
            }
        }
    }

    /// Returns the rank of `key`: the number of entries with keys strictly
    /// smaller. If `key` is absent this is its insertion position.
    pub fn rank<Q>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut cur = self.root.as_deref();
        let mut r = 0usize;
        while let Some(n) = cur {
            match key.cmp(n.key.borrow()) {
                Ordering::Less => cur = n.left.as_deref(),
                Ordering::Equal => return r + size(&n.left),
                Ordering::Greater => {
                    r += size(&n.left) + 1;
                    cur = n.right.as_deref();
                }
            }
        }
        r
    }

    /// Inserts `key -> val`, returning the new map and the previous value
    /// for `key` if one existed. The receiver is unchanged.
    pub fn insert(&self, key: K, val: V) -> (Self, Option<V>) {
        fn go<K: Ord + Clone, V: Clone>(
            link: &Link<K, V>,
            key: K,
            val: V,
        ) -> (Arc<Node<K, V>>, Option<V>) {
            match link {
                None => (Node::new(key, val, None, None), None),
                Some(n) => match key.cmp(&n.key) {
                    Ordering::Less => {
                        let (nl, old) = go(&n.left, key, val);
                        (
                            balance(n.key.clone(), n.val.clone(), Some(nl), n.right.clone()),
                            old,
                        )
                    }
                    Ordering::Greater => {
                        let (nr, old) = go(&n.right, key, val);
                        (
                            balance(n.key.clone(), n.val.clone(), n.left.clone(), Some(nr)),
                            old,
                        )
                    }
                    Ordering::Equal => (
                        Node::new(key, val, n.left.clone(), n.right.clone()),
                        Some(n.val.clone()),
                    ),
                },
            }
        }
        let (root, old) = go(&self.root, key, val);
        (PMap { root: Some(root) }, old)
    }

    /// Removes `key`, returning the new map and the removed value if it was
    /// present. The receiver is unchanged.
    pub fn remove<Q>(&self, key: &Q) -> (Self, Option<V>)
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        fn go<K, V, Q>(link: &Link<K, V>, key: &Q) -> Option<(Link<K, V>, V)>
        where
            K: Ord + Clone + Borrow<Q>,
            V: Clone,
            Q: Ord + ?Sized,
        {
            let n = link.as_ref()?;
            match key.cmp(n.key.borrow()) {
                Ordering::Less => {
                    let (nl, old) = go(&n.left, key)?;
                    Some((
                        Some(balance(n.key.clone(), n.val.clone(), nl, n.right.clone())),
                        old,
                    ))
                }
                Ordering::Greater => {
                    let (nr, old) = go(&n.right, key)?;
                    Some((
                        Some(balance(n.key.clone(), n.val.clone(), n.left.clone(), nr)),
                        old,
                    ))
                }
                Ordering::Equal => Some((join2(n.left.clone(), n.right.clone()), n.val.clone())),
            }
        }
        match go(&self.root, key) {
            None => (self.clone(), None),
            Some((root, old)) => (PMap { root }, Some(old)),
        }
    }

    /// Applies `f` to the value at `key` if present; returns the new map and
    /// whether the key existed.
    pub fn update_with<Q, F>(&self, key: &Q, f: F) -> (Self, bool)
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
        F: FnOnce(&V) -> V,
    {
        match self.get(key) {
            None => (self.clone(), false),
            Some(v) => {
                // We need an owned key to reinsert; find it via iteration of
                // the search path. `get_key_value` style:
                let k = self.get_key(key).expect("present").clone();
                (self.insert(k, f(v)).0, true)
            }
        }
    }

    fn get_key<Q>(&self, key: &Q) -> Option<&K>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            match key.cmp(n.key.borrow()) {
                Ordering::Less => cur = n.left.as_deref(),
                Ordering::Greater => cur = n.right.as_deref(),
                Ordering::Equal => return Some(&n.key),
            }
        }
        None
    }

    /// Iterates entries in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter::new(&self.root, None, None)
    }

    /// Iterates the entries whose keys lie in `[lo, hi]` (inclusive bounds,
    /// either side optional) in ascending key order.
    pub fn range<'a>(&'a self, lo: Option<&'a K>, hi: Option<&'a K>) -> Iter<'a, K, V> {
        Iter::new(&self.root, lo, hi)
    }

    /// Iterates keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// Builds a map from an iterator of pairs; later duplicates win.
    #[allow(clippy::should_implement_trait)] // also provided via FromIterator
    pub fn from_iter<I: IntoIterator<Item = (K, V)>>(it: I) -> Self {
        let mut m = PMap::new();
        for (k, v) in it {
            m = m.insert(k, v).0;
        }
        m
    }

    /// Builds a map in **O(n)** from entries sorted by strictly ascending
    /// key.
    ///
    /// This is the bulk-construction fast path: instead of n root-to-leaf
    /// insertions (O(n log n) time and `Arc` allocation), the balanced tree
    /// is assembled bottom-up with exactly one node allocation per entry.
    /// The resulting tree is height-balanced (every subtree splits its
    /// entries in half), so all AVL invariants hold.
    ///
    /// Ordering is the caller's contract; it is checked with a
    /// `debug_assert` so release builds pay nothing.
    pub fn from_sorted_vec(entries: Vec<(K, V)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "from_sorted_vec: keys must be strictly ascending"
        );
        let n = entries.len();
        let mut it = entries.into_iter();
        let root = build_balanced(&mut it, n);
        debug_assert!(it.next().is_none());
        PMap { root }
    }

    /// [`Self::from_sorted_vec`] from any iterator of strictly-ascending
    /// entries (collected once, then built in O(n)).
    pub fn from_sorted_iter<I: IntoIterator<Item = (K, V)>>(it: I) -> Self {
        Self::from_sorted_vec(it.into_iter().collect())
    }

    /// **Splits** the map at `key`: the entries below it, the value stored
    /// under it (if any), and the entries above it. O(log n); both halves
    /// share every subtree of `self` that lies wholly on their side.
    pub fn split(&self, key: &K) -> (Self, Option<V>, Self) {
        let (below, hit, above) = split(&self.root, key);
        (
            PMap { root: below },
            hit.map(|n| n.val.clone()),
            PMap { root: above },
        )
    }

    /// **Joins** `left`, the entry `key -> val` and `right` into one map, in
    /// O(|height(left) − height(right)| + 1) whatever the two sizes are,
    /// sharing both operands. Every key of `left` must be below `key` and
    /// every key of `right` above it; like [`Self::from_sorted_vec`], that
    /// contract is checked by `debug_assert` only.
    pub fn join(left: &Self, key: K, val: V, right: &Self) -> Self {
        debug_assert!(
            left.last().is_none_or(|(k, _)| *k < key)
                && right.first().is_none_or(|(k, _)| key < *k),
            "join: left < key < right must hold"
        );
        PMap {
            root: Some(join(left.root.clone(), key, val, right.root.clone())),
        }
    }

    /// **Merge union**: every key of either map, with `self`'s entry
    /// winning when a key appears in both (left bias).
    ///
    /// Join-based: for a small side of m entries and a large side of n the
    /// cost is O(m · log(n/m + 1)) — O(log n) for a one-entry delta, O(n)
    /// when the sides are comparable — and the result shares with the
    /// larger operand every subtree the smaller one does not reach.
    /// Subtrees the two maps already share (`Arc::ptr_eq`, e.g. two
    /// snapshots of one relation) are taken whole without being walked, so
    /// the union of a map with a lightly edited copy of itself costs only
    /// the edited paths. Pinned by `merge_shares_the_larger_operand` below
    /// and `crates/storage/tests/prop_pmap.rs`.
    pub fn merge_union(&self, other: &Self) -> Self {
        self.merge_by(other, MergeRule::UNION.keeping_shared(true), |_, _, _| None)
    }

    /// [`Self::merge_union`] with an explicit combiner for keys present in
    /// both maps: `combine(key, self_value, other_value)` produces the
    /// value stored under the shared key (which keeps `self`'s key). The
    /// combiner runs exactly once per shared key, in ascending key order —
    /// also inside subtrees the two maps share, which is why only the
    /// plain [`Self::merge_union`] can skip those.
    pub fn merge_union_with(&self, other: &Self, mut combine: impl FnMut(&K, &V, &V) -> V) -> Self {
        self.merge_by(other, MergeRule::UNION, |k, a, b| Some(combine(k, a, b)))
    }

    /// **Merge intersection**: the keys present in both maps, carrying
    /// `self`'s entries. Same O(m · log(n/m + 1)) bound and sharing as
    /// [`Self::merge_union`]; shared subtrees are their own intersection.
    pub fn merge_intersection(&self, other: &Self) -> Self {
        self.merge_by(
            other,
            MergeRule::INTERSECTION.keeping_shared(true),
            |_, _, _| None,
        )
    }

    /// [`Self::merge_intersection`] with a per-key decision:
    /// `combine(key, self_value, other_value)` returns the value to keep,
    /// or `None` to drop the key (e.g. when the two values are not
    /// considered equal by the caller's notion of identity). Runs once per
    /// shared key, in ascending key order.
    pub fn merge_intersection_with(
        &self,
        other: &Self,
        combine: impl FnMut(&K, &V, &V) -> Option<V>,
    ) -> Self {
        self.merge_by(other, MergeRule::INTERSECTION, combine)
    }

    /// **Merge difference**: the entries of `self` whose keys are absent
    /// from `other`. Same O(m · log(n/m + 1)) bound as
    /// [`Self::merge_union`]; removing a few keys from a large map shares
    /// everything off the removed paths, and a subtree both maps share
    /// contributes nothing without being walked.
    pub fn merge_difference(&self, other: &Self) -> Self {
        self.merge_by(
            other,
            MergeRule::DIFFERENCE.keeping_shared(false),
            |_, _, _| None,
        )
    }

    /// [`Self::merge_difference`] with a per-key decision for keys present
    /// in both maps: `combine(key, self_value, other_value)` returns
    /// `Some(value)` to keep the key anyway (e.g. a residual after a
    /// value-level difference) or `None` to drop it. Runs once per shared
    /// key, in ascending key order.
    pub fn merge_difference_with(
        &self,
        other: &Self,
        combine: impl FnMut(&K, &V, &V) -> Option<V>,
    ) -> Self {
        self.merge_by(other, MergeRule::DIFFERENCE, combine)
    }

    /// All six merges are [`merge`] under a different [`MergeRule`].
    fn merge_by(
        &self,
        other: &Self,
        rule: MergeRule,
        mut combine: impl FnMut(&K, &V, &V) -> Option<V>,
    ) -> Self {
        PMap {
            root: merge(&self.root, &other.root, rule, &mut combine),
        }
    }

    /// Walks the **difference** of two maps in ascending key order without
    /// visiting what they share: subtrees the maps hold in common
    /// (`Arc::ptr_eq` — the normal case for two versions of one relation)
    /// are skipped whole, so diffing two versions that differ in k keys
    /// costs about O(k · log n), not O(n). Each item is `(key, value in
    /// self, value in other)`: a key in only one map has `None` on the
    /// other side; a key in both is reported whenever its two entries live
    /// in different nodes, so callers compare the two values themselves
    /// (`V` need not be `PartialEq`).
    pub fn diff<'a>(&'a self, other: &'a Self) -> Diff<'a, K, V> {
        Diff {
            a: self.root.iter().map(Frame::Tree).collect(),
            b: other.root.iter().map(Frame::Tree).collect(),
        }
    }

    /// Checks the AVL and size invariants of the whole tree (test support).
    pub fn check_invariants(&self) -> bool {
        fn go<K: Ord, V>(link: &Link<K, V>, lo: Option<&K>, hi: Option<&K>) -> Option<(u8, usize)> {
            match link {
                None => Some((0, 0)),
                Some(n) => {
                    if let Some(lo) = lo {
                        if n.key <= *lo {
                            return None;
                        }
                    }
                    if let Some(hi) = hi {
                        if n.key >= *hi {
                            return None;
                        }
                    }
                    let (lh, ls) = go(&n.left, lo, Some(&n.key))?;
                    let (rh, rs) = go(&n.right, Some(&n.key), hi)?;
                    if (lh as i16 - rh as i16).abs() > 1 {
                        return None;
                    }
                    let h = 1 + lh.max(rh);
                    let s = 1 + ls + rs;
                    if h != n.height || s != n.size {
                        return None;
                    }
                    Some((h, s))
                }
            }
        }
        go(&self.root, None, None).is_some()
    }

    /// Number of nodes of `self` that are not nodes of `prev` — what
    /// building `self` from `prev` had to allocate (test support: the
    /// structure-sharing pins count nodes instead of timing anything).
    /// O(|prev|) to index `prev`, then only `self`'s fresh nodes are walked.
    #[doc(hidden)]
    pub fn fresh_nodes(&self, prev: &Self) -> usize {
        fn index<K, V>(link: &Link<K, V>, seen: &mut HashSet<*const Node<K, V>>) {
            if let Some(n) = link {
                seen.insert(Arc::as_ptr(n));
                index(&n.left, seen);
                index(&n.right, seen);
            }
        }
        fn count<K, V>(link: &Link<K, V>, seen: &HashSet<*const Node<K, V>>) -> usize {
            match link {
                Some(n) if !seen.contains(&Arc::as_ptr(n)) => {
                    1 + count(&n.left, seen) + count(&n.right, seen)
                }
                _ => 0,
            }
        }
        let mut seen = HashSet::new();
        index(&prev.root, &mut seen);
        count(&self.root, &seen)
    }
}

impl<K: Ord + Clone + fmt::Debug, V: Clone + fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord + Clone, V: Clone + PartialEq> PartialEq for PMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<K: Ord + Clone, V: Clone + Eq> Eq for PMap<K, V> {}

impl<K: Ord + Clone, V: Clone> FromIterator<(K, V)> for PMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(it: I) -> Self {
        PMap::from_iter(it)
    }
}

/// In-order iterator over a [`PMap`] with optional inclusive bounds.
pub struct Iter<'a, K, V> {
    stack: Vec<&'a Node<K, V>>,
    hi: Option<&'a K>,
}

impl<'a, K: Ord, V> Iter<'a, K, V> {
    /// Stacks the spine towards the first key `>= lo`, skipping the
    /// subtrees entirely below it. That is the only place the lower bound
    /// is looked at: everything visited afterwards hangs off the right of
    /// a stacked node, so it is `>= lo` already.
    fn new(root: &'a Link<K, V>, lo: Option<&'a K>, hi: Option<&'a K>) -> Self {
        let mut it = Iter {
            stack: Vec::new(),
            hi,
        };
        let mut node = root.as_deref();
        while let Some(n) = node {
            if lo.is_some_and(|lo| n.key < *lo) {
                node = n.right.as_deref();
            } else {
                it.stack.push(n);
                node = n.left.as_deref();
            }
        }
        it
    }

    /// Pushes the left spine of `node`.
    fn push_left(&mut self, mut node: Option<&'a Node<K, V>>) {
        while let Some(n) = node {
            self.stack.push(n);
            node = n.left.as_deref();
        }
    }
}

impl<'a, K: Ord, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.stack.pop()?;
        if let Some(hi) = self.hi {
            if n.key > *hi {
                self.stack.clear();
                return None;
            }
        }
        self.push_left(n.right.as_deref());
        Some((&n.key, &n.val))
    }
}

/// One pending step of a [`Diff`] cursor: a subtree not yet opened, or an
/// entry whose left subtree is already behind the cursor.
enum Frame<'a, K, V> {
    Tree(&'a Arc<Node<K, V>>),
    Entry(&'a Node<K, V>),
}

impl<K, V> Clone for Frame<'_, K, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K, V> Copy for Frame<'_, K, V> {}

/// Opens the subtree on top of an in-order stack: its right subtree, its
/// root entry and its left subtree take its place.
fn open<'a, K, V>(stack: &mut Vec<Frame<'a, K, V>>) {
    if let Some(Frame::Tree(n)) = stack.pop() {
        stack.extend(n.right.as_ref().map(Frame::Tree));
        stack.push(Frame::Entry(n));
        stack.extend(n.left.as_ref().map(Frame::Tree));
    }
}

/// The iterator behind [`PMap::diff`]: two in-order cursors advanced in
/// step. When both are about to enter the *same* subtree it is skipped on
/// both sides; otherwise the larger pending subtree is opened, which is
/// what brings the cursors back onto a shared subtree after the two trees
/// were shaped differently by a rotation.
pub struct Diff<'a, K, V> {
    a: Vec<Frame<'a, K, V>>,
    b: Vec<Frame<'a, K, V>>,
}

impl<'a, K: Ord, V> Iterator for Diff<'a, K, V> {
    type Item = (&'a K, Option<&'a V>, Option<&'a V>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match (self.a.last().copied(), self.b.last().copied()) {
                (None, None) => return None,
                (Some(Frame::Tree(x)), Some(Frame::Tree(y))) => {
                    if Arc::ptr_eq(x, y) {
                        self.a.pop();
                        self.b.pop();
                        continue;
                    }
                    if x.size >= y.size {
                        open(&mut self.a);
                    }
                    if y.size >= x.size {
                        open(&mut self.b);
                    }
                }
                (Some(Frame::Tree(_)), _) => open(&mut self.a),
                (_, Some(Frame::Tree(_))) => open(&mut self.b),
                (Some(Frame::Entry(x)), Some(Frame::Entry(y))) => match x.key.cmp(&y.key) {
                    Ordering::Less => {
                        self.a.pop();
                        return Some((&x.key, Some(&x.val), None));
                    }
                    Ordering::Greater => {
                        self.b.pop();
                        return Some((&y.key, None, Some(&y.val)));
                    }
                    Ordering::Equal => {
                        self.a.pop();
                        self.b.pop();
                        if !std::ptr::eq(x, y) {
                            return Some((&x.key, Some(&x.val), Some(&y.val)));
                        }
                    }
                },
                (Some(Frame::Entry(x)), None) => {
                    self.a.pop();
                    return Some((&x.key, Some(&x.val), None));
                }
                (None, Some(Frame::Entry(y))) => {
                    self.b.pop();
                    return Some((&y.key, None, Some(&y.val)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_basics() {
        let m: PMap<i32, i32> = PMap::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(&1), None);
        assert_eq!(m.first(), None);
        assert_eq!(m.last(), None);
        assert_eq!(m.nth(0), None);
        assert!(m.check_invariants());
    }

    #[test]
    fn insert_get_overwrite() {
        let m = PMap::new().insert(1, "a").0;
        let (m2, old) = m.insert(1, "b");
        assert_eq!(old, Some("a"));
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m2.get(&1), Some(&"b"));
        assert_eq!(m2.len(), 1);
    }

    #[test]
    fn snapshots_are_independent() {
        let base = PMap::from_iter((0..100).map(|i| (i, i * 10)));
        let snap = base.clone();
        let (modified, _) = base.insert(50, 999);
        let (removed, _) = modified.remove(&10);
        assert_eq!(snap.get(&50), Some(&500));
        assert_eq!(modified.get(&50), Some(&999));
        assert_eq!(removed.get(&10), None);
        assert_eq!(snap.get(&10), Some(&100));
        assert_eq!(snap.len(), 100);
        assert_eq!(removed.len(), 99);
    }

    #[test]
    fn ascending_insert_stays_balanced() {
        let m = PMap::from_iter((0..1024).map(|i| (i, ())));
        assert!(m.check_invariants());
        // AVL height bound: 1.44 * log2(n+2)
        assert!(
            m.tree_height() <= 15,
            "height {} too large",
            m.tree_height()
        );
    }

    #[test]
    fn descending_insert_stays_balanced() {
        let m = PMap::from_iter((0..1024).rev().map(|i| (i, ())));
        assert!(m.check_invariants());
        assert!(m.tree_height() <= 15);
    }

    #[test]
    fn iteration_is_sorted() {
        let m = PMap::from_iter([(3, 'c'), (1, 'a'), (2, 'b')]);
        let items: Vec<_> = m.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(items, vec![(1, 'a'), (2, 'b'), (3, 'c')]);
    }

    #[test]
    fn range_scan_bounds() {
        let m = PMap::from_iter((0..100).map(|i| (i, ())));
        let lo = 10;
        let hi = 20;
        let keys: Vec<_> = m.range(Some(&lo), Some(&hi)).map(|(k, _)| *k).collect();
        assert_eq!(keys, (10..=20).collect::<Vec<_>>());
        let open_lo: Vec<_> = m.range(None, Some(&3)).map(|(k, _)| *k).collect();
        assert_eq!(open_lo, vec![0, 1, 2, 3]);
        let open_hi: Vec<_> = m.range(Some(&97), None).map(|(k, _)| *k).collect();
        assert_eq!(open_hi, vec![97, 98, 99]);
    }

    #[test]
    fn remove_all_elements() {
        let mut m = PMap::from_iter((0..200).map(|i| (i, i)));
        for i in 0..200 {
            let (next, old) = m.remove(&i);
            assert_eq!(old, Some(i));
            m = next;
            assert!(m.check_invariants());
        }
        assert!(m.is_empty());
    }

    #[test]
    fn remove_absent_is_noop() {
        let m = PMap::from_iter([(1, 'a')]);
        let (m2, old) = m.remove(&42);
        assert_eq!(old, None);
        assert_eq!(m2.len(), 1);
    }

    #[test]
    fn nth_and_rank_agree() {
        let m = PMap::from_iter((0..50).map(|i| (i * 2, ())));
        for i in 0..50 {
            let (k, _) = m.nth(i).unwrap();
            assert_eq!(m.rank(k), i);
        }
        // rank of an absent key = insertion position
        assert_eq!(m.rank(&1), 1);
        assert_eq!(m.rank(&-5), 0);
        assert_eq!(m.rank(&1000), 50);
    }

    #[test]
    fn update_with_applies_in_new_version_only() {
        let m = PMap::from_iter([(7, 10)]);
        let (m2, hit) = m.update_with(&7, |v| v + 1);
        assert!(hit);
        assert_eq!(m.get(&7), Some(&10));
        assert_eq!(m2.get(&7), Some(&11));
        let (m3, miss) = m.update_with(&8, |v| v + 1);
        assert!(!miss);
        assert_eq!(m3.len(), 1);
    }

    #[test]
    fn borrowed_key_lookup() {
        let m: PMap<String, i32> = PMap::from_iter([("alice".to_string(), 1)]);
        assert_eq!(m.get("alice"), Some(&1));
        assert!(m.contains_key("alice"));
        assert!(!m.contains_key("bob"));
    }

    #[test]
    fn merge_union_is_left_biased() {
        let a = PMap::from_iter([(1, 'a'), (3, 'a'), (5, 'a')]);
        let b = PMap::from_iter([(2, 'b'), (3, 'b'), (6, 'b')]);
        let u = a.merge_union(&b);
        assert!(u.check_invariants());
        let items: Vec<_> = u.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(
            items,
            vec![(1, 'a'), (2, 'b'), (3, 'a'), (5, 'a'), (6, 'b')],
            "shared key 3 takes the left value"
        );
        // empty shortcuts
        let e: PMap<i32, char> = PMap::new();
        assert_eq!(a.merge_union(&e), a);
        assert_eq!(e.merge_union(&b), b);
    }

    #[test]
    fn merge_intersection_and_difference() {
        let a = PMap::from_iter([(1, 'a'), (3, 'a'), (5, 'a')]);
        let b = PMap::from_iter([(3, 'b'), (5, 'b'), (7, 'b')]);
        let i = a.merge_intersection(&b);
        assert_eq!(
            i.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
            vec![(3, 'a'), (5, 'a')],
            "self's values survive"
        );
        let d = a.merge_difference(&b);
        assert_eq!(
            d.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
            vec![(1, 'a')]
        );
        assert!(i.check_invariants() && d.check_invariants());
    }

    #[test]
    fn merge_with_variants_decide_per_key() {
        let a = PMap::from_iter([(1, 10), (2, 20), (3, 30)]);
        let b = PMap::from_iter([(2, 2), (3, 300)]);
        let u = a.merge_union_with(&b, |_, x, y| x + y);
        assert_eq!(u.get(&2), Some(&22));
        assert_eq!(u.get(&1), Some(&10));
        let i = a.merge_intersection_with(&b, |_, x, y| (*x > *y).then_some(*x));
        assert_eq!(
            i.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![2],
            "3 dropped: 30 < 300"
        );
        let d = a.merge_difference_with(&b, |_, x, y| (*x > *y).then(|| x - y));
        assert_eq!(
            d.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
            vec![(1, 10), (2, 18)]
        );
    }

    fn entries(m: &PMap<i64, i64>) -> Vec<(i64, i64)> {
        m.iter().map(|(k, v)| (*k, *v)).collect()
    }

    #[test]
    fn split_and_join_round_trip() {
        let m = PMap::from_sorted_vec((0..500).map(|i| (2 * i, i)).collect());
        for key in [-1, 0, 1, 2, 499, 500, 997, 998, 999, 2000] {
            let (below, hit, above) = m.split(&key);
            assert!(below.check_invariants() && above.check_invariants());
            assert_eq!(hit, m.get(&key).copied());
            assert!(below.keys().all(|k| *k < key) && above.keys().all(|k| *k > key));
            assert_eq!(below.len() + above.len() + usize::from(hit.is_some()), 500);
            // glue the halves back around the cut (any value: the key is new or overwritten)
            let back = PMap::join(&below, key, -7, &above);
            assert!(back.check_invariants());
            assert_eq!(entries(&back), entries(&m.insert(key, -7).0));
        }
        // joins of wildly different heights stay balanced
        let tall = PMap::from_sorted_vec((0..4096).map(|i| (i, i)).collect());
        let tiny = PMap::from_sorted_vec(vec![(5000, 0)]);
        let empty = PMap::new();
        for (l, r) in [(&tall, &tiny), (&tall, &empty), (&empty, &tiny)] {
            let j = PMap::join(l, 4500, 1, r);
            assert!(j.check_invariants());
            assert_eq!(j.len(), l.len() + r.len() + 1);
        }
        let j = PMap::join(
            &tiny,
            6000,
            1,
            &tall.split(&-1).2.split(&-1).2.split(&7000).2,
        );
        assert!(j.check_invariants() && j.len() == 2);
    }

    /// The structure-sharing pin: merging m entries into (or out of) a
    /// 64k-entry map allocates O(m · height) nodes — everything else of
    /// the result is the larger operand's own nodes.
    #[test]
    fn merge_shares_the_larger_operand() {
        let n = 1 << 16;
        let large: PMap<i64, i64> = PMap::from_sorted_vec((0..n).map(|i| (2 * i, i)).collect());
        let h = large.tree_height();
        for m in [1usize, 16] {
            let stride = n / m as i64;
            let at = |i: usize| 2 * (i as i64 * stride + stride / 2);
            // odd keys are new, even ones the large map already holds
            let fresh_keys = m / 2;
            let small = PMap::from_sorted_vec(
                (0..m)
                    .map(|i| (at(i) + (i % 2) as i64, -1))
                    .collect::<Vec<_>>(),
            );
            let budget = 3 * m * h;
            let results = [
                (
                    "small ∪ large",
                    small.merge_union(&large),
                    n as usize + fresh_keys,
                ),
                (
                    "large ∪ small",
                    large.merge_union(&small),
                    n as usize + fresh_keys,
                ),
                (
                    "large ∪ small (combined)",
                    large.merge_union_with(&small, |_, a, b| a + b),
                    n as usize + fresh_keys,
                ),
                (
                    "large − small",
                    large.merge_difference(&small),
                    n as usize - m + fresh_keys,
                ),
                (
                    "large − small (combined)",
                    large.merge_difference_with(&small, |_, _, _| None),
                    n as usize - m + fresh_keys,
                ),
                (
                    "large ∩ small",
                    large.merge_intersection(&small),
                    m - fresh_keys,
                ),
                (
                    "small ∩ large",
                    small.merge_intersection(&large),
                    m - fresh_keys,
                ),
            ];
            for (what, result, want_len) in results {
                assert!(result.check_invariants(), "{what}, m = {m}");
                assert_eq!(result.len(), want_len, "{what}, m = {m}");
                let fresh = result.fresh_nodes(&large);
                assert!(
                    fresh <= budget,
                    "{what}, m = {m}: {fresh} fresh nodes > 3·m·height = {budget}"
                );
            }
        }
        // shared subtrees are taken (or cancelled) whole
        let edited = large.insert(7, 7).0.remove(&40_000).0;
        assert_eq!(large.merge_union(&large).fresh_nodes(&large), 0);
        assert!(large.merge_union(&edited).fresh_nodes(&large) <= 3 * h);
        assert!(large.merge_intersection(&edited).fresh_nodes(&large) <= 3 * h);
        assert_eq!(
            entries(&large.merge_difference(&edited)),
            vec![(40_000, 20_000)]
        );
        assert_eq!(entries(&edited.merge_difference(&large)), vec![(7, 7)]);
    }

    #[test]
    fn diff_skips_shared_subtrees() {
        let n = 1 << 16;
        let base: PMap<i64, i64> = PMap::from_sorted_vec((0..n).map(|i| (2 * i, i)).collect());
        let h = base.tree_height();
        assert_eq!(base.diff(&base).count(), 0);
        // an update copies one path: the diff visits that path and nothing else
        let updated = base.insert(40_000, -1).0;
        let seen: Vec<_> = base.diff(&updated).collect();
        assert!(seen.len() <= h, "{} items for a one-key update", seen.len());
        let real: Vec<_> = seen.iter().filter(|(_, a, b)| a != b).collect();
        assert_eq!(real, vec![&(&40_000, Some(&20_000), Some(&-1))]);
        // inserts and removes rotate: the trees are shaped differently, the
        // walk still re-aligns on the shared subtrees
        let mut edited = base.clone();
        for i in 0..8 {
            edited = edited.insert(2 * (i * 7919) + 1, -2).0;
            edited = edited.remove(&(2 * (i * 6007 + 3))).0;
        }
        let seen: Vec<_> = base.diff(&edited).collect();
        assert!(
            seen.len() <= 16 * 4 * h,
            "{} items for 16 one-key edits",
            seen.len()
        );
        let real: Vec<_> = seen.into_iter().filter(|(_, a, b)| a != b).collect();
        assert_eq!(real.len(), 16);
        assert!(real.windows(2).all(|w| w[0].0 < w[1].0), "ascending keys");
        assert_eq!(real.iter().filter(|(_, a, _)| a.is_none()).count(), 8);
        assert_eq!(real.iter().filter(|(_, _, b)| b.is_none()).count(), 8);
        // unrelated trees: every key of either side, once
        let other: PMap<i64, i64> = PMap::from_iter((0..100).map(|i| (3 * i, i)));
        let small: PMap<i64, i64> = PMap::from_iter((0..100).map(|i| (2 * i, i)));
        let keys: Vec<i64> = small.diff(&other).map(|(k, _, _)| *k).collect();
        let mut want: Vec<i64> = (0..100).flat_map(|i| [2 * i, 3 * i]).collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(keys, want);
    }

    #[test]
    fn equality_is_structural_on_contents() {
        let a = PMap::from_iter([(1, 'x'), (2, 'y')]);
        let b = PMap::from_iter([(2, 'y'), (1, 'x')]);
        assert_eq!(a, b);
        let c = b.insert(3, 'z').0;
        assert_ne!(a, c);
    }
}
