//! A persistent ordered map implemented as a B+-tree with `Arc`-shared
//! nodes.
//!
//! Every mutating operation (`insert`, `remove`, ...) returns a *new* map
//! that shares all untouched subtrees with the original. Cloning a map is
//! O(1). This is the backbone of FDM relation functions and database
//! functions: a "snapshot" of a relation is just a clone of its root.
//!
//! **Layout.** A leaf holds up to `W` = 8 entries in key order, its keys
//! in one inline array and its values in another; an inner node holds up
//! to `W` children, each under the smallest key of its subtree. Every node
//! but the root holds at least `W / 2` slots and every leaf sits at the
//! same depth, so a million bulk-loaded entries are seven levels deep (an
//! AVL tree needs twenty): a point read scans seven short key arrays, and
//! a range scan walks contiguous leaves.
//! An update copies one root-to-leaf path of `W`-wide nodes, plus a
//! sibling per level where a node splits, borrows or merges. Copying is
//! copy-on-write (`Arc::make_mut`): a node the map holds alone — while
//! `from_iter` builds it, or a merge applies its batch of edits — is
//! edited in place.
//!
//! **Bulk set algebra.** `merge_union` / `merge_intersection` /
//! `merge_difference`, their `_with` variants, and [`PMap::diff`] keep the
//! sharing contract of Blelloch, Ferizovic & Sun, "Just Join for Parallel
//! Ordered Sets" (SPAA 2016): combining a small map (m entries) with a
//! large one (n entries) allocates O(m · height) nodes, and the result
//! shares every subtree of the larger operand that the smaller one does not
//! reach. A merge reads the keys that can change the result — the smaller
//! operand's, looked up in the larger one, or, for two maps of comparable
//! size, their [`PMap::diff`], which skips pointer-equal subtrees whole —
//! and edits the larger operand along those paths. When the edits would
//! copy more than the result holds, it rebuilds the result in one linear
//! pass instead.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::iter;
use std::mem::MaybeUninit;
use std::sync::Arc;

/// The fan-out: the most entries a leaf holds and the most children an
/// inner node holds. At 8, 12 and 16, point reads and 64-row scans of the
/// benchmark's 1.02M-entry relation ran about equally fast (7, 6 and 5
/// levels), while a commit's path copy grew with the width — a copied
/// node clones all `W` of its keys and of its values or children — so 8,
/// which cost `view_commit` the least.
const W: usize = 8;

/// The least number of slots a node other than the root holds.
const MIN: usize = W / 2;

/// Up to `W` values in one inline array, the first `len` of them live:
/// a node's keys, values or children. Cloning one clones the live values
/// only; an array of `Option`s costs a tag test per slot and, for `Value`
/// keys, cloned about three times slower.
struct Slots<T> {
    len: usize,
    buf: [MaybeUninit<T>; W],
}

impl<T> Slots<T> {
    fn new() -> Self {
        Slots {
            len: 0,
            buf: [const { MaybeUninit::uninit() }; W],
        }
    }

    /// Appends `x`; panics (changing nothing) when all `W` slots are live.
    fn push(&mut self, x: T) {
        self.buf[self.len] = MaybeUninit::new(x);
        self.len += 1;
    }

    fn pop(&mut self) -> Option<T> {
        self.len = self.len.checked_sub(1)?;
        // SAFETY: `buf[..len]` is initialised (`push` writes a slot before
        // counting it); the slot just left that prefix, so it is read once.
        Some(unsafe { self.buf[self.len].assume_init_read() })
    }

    fn insert(&mut self, i: usize, x: T) {
        self.push(x);
        self[i..].rotate_right(1);
    }

    fn remove(&mut self, i: usize) -> T {
        self[i..].rotate_left(1);
        self.pop().expect("a removed slot is live")
    }

    /// Moves slots `at..` into a new array.
    fn split_off(&mut self, at: usize) -> Self {
        let mut right = Slots::new();
        while self.len > at {
            right.push(self.pop().expect("a slot above `at` is live"));
        }
        right.reverse();
        right
    }
}

impl<K> Slots<K> {
    /// The child slot of an inner node to descend for `key`: the last one
    /// whose key is `<= key`, or the first when `key` lies below them all.
    fn child_for<Q>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self[1..]
            .iter()
            .take_while(|k| (*k).borrow() <= key)
            .count()
    }

    /// The slot holding `key` (`Ok`), or the slot it would be inserted at.
    fn search<Q>(&self, key: &Q) -> Result<usize, usize>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        for (i, k) in self.iter().enumerate() {
            match k.borrow().cmp(key) {
                Ordering::Less => {}
                Ordering::Equal => return Ok(i),
                Ordering::Greater => return Err(i),
            }
        }
        Err(self.len)
    }
}

impl<T> std::ops::Deref for Slots<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: `buf[..len]` is initialised, and `MaybeUninit<T>` has the
        // layout of `T`.
        unsafe { std::slice::from_raw_parts(self.buf.as_ptr().cast(), self.len) }
    }
}

impl<T> std::ops::DerefMut for Slots<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`, and `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.buf.as_mut_ptr().cast(), self.len) }
    }
}

impl<T> Drop for Slots<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

impl<T: Clone> Clone for Slots<T> {
    fn clone(&self) -> Self {
        let mut out = Slots::new();
        self.iter().for_each(|x| out.push(x.clone()));
        out
    }
}
/// A node of the persistent B+-tree: slots holding a key with a value
/// (leaf) or with a child (inner node). An inner node's key for a child is
/// the smallest key of that child's subtree, so a node's first key is the
/// smallest key below it.
///
/// A node shared by more than one tree is immutable: an update copies it
/// (`Arc::make_mut`) and reuses (via `Arc`) everything that did not change.
#[derive(Clone)]
struct Node<K, V> {
    /// Number of entries in the subtree rooted here (order statistics).
    size: usize,
    keys: Slots<K>,
    kind: Kind<K, V>,
}

/// A leaf's values or an inner node's children, one per key.
#[derive(Clone)]
enum Kind<K, V> {
    Leaf(Slots<V>),
    Inner(Slots<Arc<Node<K, V>>>),
}

type Link<K, V> = Option<Arc<Node<K, V>>>;

/// What a slot carries beside its key, when slots move between nodes.
enum Item<K, V> {
    Entry(V),
    Child(Arc<Node<K, V>>),
}

/// `node` as a slot of its parent: under its smallest key.
fn child_item<K: Clone, V>(node: Arc<Node<K, V>>) -> (K, Item<K, V>) {
    (node.keys[0].clone(), Item::Child(node))
}

impl<K, V> Node<K, V> {
    fn len(&self) -> usize {
        self.keys.len
    }

    fn kid(&self, i: usize) -> &Arc<Node<K, V>> {
        match &self.kind {
            Kind::Inner(kids) => &kids[i],
            Kind::Leaf(_) => unreachable!("a leaf has no children"),
        }
    }

    /// Levels from here down to the leaves (a leaf is 1).
    fn height(&self) -> usize {
        let mut node = self;
        let mut h = 1;
        while let Kind::Inner(kids) = &node.kind {
            node = &kids[0];
            h += 1;
        }
        h
    }
}

impl<K: Clone, V: Clone> Node<K, V> {
    /// A node holding `items` (at most `W`, all entries or all children).
    fn build(items: impl IntoIterator<Item = (K, Item<K, V>)>) -> Arc<Self> {
        let (mut keys, mut vals, mut kids) = (Slots::new(), Slots::new(), Slots::new());
        let mut size = 0;
        for (key, item) in items {
            keys.push(key);
            match item {
                Item::Entry(v) => {
                    vals.push(v);
                    size += 1;
                }
                Item::Child(c) => {
                    size += c.size;
                    kids.push(c);
                }
            }
        }
        debug_assert!(keys.len > 0, "a node holds at least one slot");
        let kind = if kids.is_empty() {
            Kind::Leaf(vals)
        } else {
            Kind::Inner(kids)
        };
        Arc::new(Node { size, keys, kind })
    }

    /// Puts `key` and `item` at slot `i`; the node has room.
    fn put(&mut self, i: usize, key: K, item: Item<K, V>) {
        self.keys.insert(i, key);
        match (&mut self.kind, item) {
            (Kind::Leaf(vals), Item::Entry(v)) => {
                vals.insert(i, v);
                self.size += 1;
            }
            (Kind::Inner(kids), Item::Child(c)) => {
                self.size += c.size;
                kids.insert(i, c);
            }
            _ => unreachable!("a slot keeps its node's kind"),
        }
    }

    /// [`Self::put`], splitting a full node first: its right half, which
    /// then holds slots `W / 2..` of the `W + 1`, comes back.
    fn put_or_split(&mut self, i: usize, key: K, item: Item<K, V>) -> Option<Node<K, V>> {
        if self.len() < W {
            self.put(i, key, item);
            return None;
        }
        let mut right = self.split_off(W / 2);
        if i <= W / 2 {
            self.put(i, key, item);
        } else {
            right.put(i - W / 2, key, item);
        }
        Some(right)
    }

    /// Takes slot `i` out.
    fn take(&mut self, i: usize) -> (K, Item<K, V>) {
        let key = self.keys.remove(i);
        let item = match &mut self.kind {
            Kind::Leaf(vals) => {
                self.size -= 1;
                Item::Entry(vals.remove(i))
            }
            Kind::Inner(kids) => {
                let c = kids.remove(i);
                self.size -= c.size;
                Item::Child(c)
            }
        };
        (key, item)
    }

    /// Moves slots `at..` into a new right sibling.
    fn split_off(&mut self, at: usize) -> Node<K, V> {
        let keys = self.keys.split_off(at);
        let (size, kind) = match &mut self.kind {
            Kind::Leaf(vals) => (keys.len(), Kind::Leaf(vals.split_off(at))),
            Kind::Inner(kids) => {
                let kids = kids.split_off(at);
                (kids.iter().map(|c| c.size).sum(), Kind::Inner(kids))
            }
        };
        self.size -= size;
        Node { size, keys, kind }
    }
}

/// Inserts `key -> val` below `node`, the previous value if `key` was
/// present (the new key then replaces the stored one). Every node on the
/// way is copied if it is shared (`Arc::make_mut`) and edited in place if
/// it is not: a shared tree gets a path copy, while a tree being built or
/// batch-edited copies each node once. Returns the new right sibling when
/// `node` split.
fn insert<K: Ord + Clone, V: Clone>(
    node: &mut Arc<Node<K, V>>,
    key: K,
    val: V,
) -> (Option<V>, Option<Node<K, V>>) {
    let node = Arc::make_mut(node);
    match &mut node.kind {
        Kind::Leaf(vals) => match node.keys.search(&key) {
            Ok(i) => {
                node.keys[i] = key;
                (Some(std::mem::replace(&mut vals[i], val)), None)
            }
            Err(i) => (None, node.put_or_split(i, key, Item::Entry(val))),
        },
        Kind::Inner(kids) => {
            let i = node.keys.child_for(&key);
            if key < node.keys[i] {
                node.keys[i] = key.clone(); // a new smallest key below
            }
            let (old, split) = insert(&mut kids[i], key, val);
            node.size += usize::from(old.is_none());
            let split = split.and_then(|right| {
                // `put` counts the entries that moved to `right` again
                node.size -= right.size;
                let key = right.keys[0].clone();
                node.put_or_split(i + 1, key, Item::Child(Arc::new(right)))
            });
            (old, split)
        }
    }
}

/// Removes `key`, which must be present below `node`, and returns its
/// value; copies shared nodes and edits fresh ones like [`insert`]. The
/// node may be left with fewer than `MIN` slots (a root leaf with none).
fn remove<K, V, Q>(node: &mut Arc<Node<K, V>>, key: &Q) -> V
where
    K: Ord + Clone + Borrow<Q>,
    V: Clone,
    Q: Ord + ?Sized,
{
    let node = Arc::make_mut(node);
    node.size -= 1;
    match &mut node.kind {
        Kind::Leaf(vals) => {
            let i = node.keys.search(key).expect("the key is present");
            node.keys.remove(i);
            vals.remove(i)
        }
        Kind::Inner(kids) => {
            let i = node.keys.child_for(key);
            let was_smallest = node.keys[i].borrow() == key;
            let old = remove(&mut kids[i], key);
            if was_smallest {
                // a child held at least `MIN` slots, so it keeps one
                node.keys[i] = kids[i].keys[0].clone();
            }
            if kids[i].len() < MIN {
                rebalance(&mut node.keys, kids, i.saturating_sub(1));
            }
            old
        }
    }
}

/// Children `a` and `a + 1`, one of them underfull: merged when their
/// slots fit one node, else slots move from the fuller to the other until
/// both hold `MIN`.
fn rebalance<K: Clone, V: Clone>(keys: &mut Slots<K>, kids: &mut Slots<Arc<Node<K, V>>>, a: usize) {
    if kids[a].len() + kids[a + 1].len() <= W {
        keys.remove(a + 1);
        let right = kids.remove(a + 1);
        let mut right = Arc::try_unwrap(right).unwrap_or_else(|shared| (*shared).clone());
        let left = Arc::make_mut(&mut kids[a]);
        while right.len() > 0 {
            let (key, item) = right.take(0);
            left.put(left.len(), key, item);
        }
        return;
    }
    while kids[a].len() < MIN {
        let (key, item) = Arc::make_mut(&mut kids[a + 1]).take(0);
        let left = Arc::make_mut(&mut kids[a]);
        left.put(left.len(), key, item);
    }
    while kids[a + 1].len() < MIN {
        let left = Arc::make_mut(&mut kids[a]);
        let (key, item) = left.take(left.len() - 1);
        Arc::make_mut(&mut kids[a + 1]).put(0, key, item);
    }
    keys[a + 1] = kids[a + 1].keys[0].clone();
}

/// A root with a single child hands the tree to that child.
fn collapse<K, V>(mut root: Arc<Node<K, V>>) -> Arc<Node<K, V>> {
    while root.len() == 1 && matches!(root.kind, Kind::Inner(_)) {
        root = root.kid(0).clone();
    }
    root
}

/// Packs `n` items into nodes of `W` slots, except that the last two share
/// a remainder below `MIN` — the O(n) half of [`PMap::from_sorted_vec`].
fn pack<K: Clone, V: Clone>(
    mut items: impl Iterator<Item = (K, Item<K, V>)>,
    n: usize,
) -> Vec<Arc<Node<K, V>>> {
    let mut nodes = Vec::with_capacity(n.div_ceil(W));
    let mut left = n;
    while left > 0 {
        let take = match left {
            l if l <= W => l,
            l if l < W + MIN => l / 2,
            _ => W,
        };
        nodes.push(Node::build(items.by_ref().take(take)));
        left -= take;
    }
    nodes
}

/// Hangs `sub` (`hs` levels high) below the right spine of `tree` (`h >
/// hs` levels), or below its left spine when `!at_end`, copying the shared
/// nodes on that spine; an underfull `sub` merges with, or borrows from,
/// its new sibling. Returns `tree`'s new right sibling when `tree` split.
fn hang<K: Clone, V: Clone>(
    tree: &mut Arc<Node<K, V>>,
    h: usize,
    sub: Arc<Node<K, V>>,
    hs: usize,
    at_end: bool,
) -> Option<Node<K, V>> {
    let node = Arc::make_mut(tree);
    let Kind::Inner(kids) = &mut node.kind else {
        unreachable!("a taller tree has children")
    };
    let spine = if at_end { kids.len() - 1 } else { 0 };
    let extra = if h > hs + 1 {
        let split = hang(&mut kids[spine], h - 1, sub, hs, at_end);
        node.keys[spine] = kids[spine].keys[0].clone();
        split.map(Arc::new)
    } else {
        Some(sub)
    };
    node.size = kids.iter().map(|kid| kid.size).sum();
    let extra = extra?;
    let underfull = extra.len() < MIN;
    // a split spine child's right half sits beside it; `sub` at the edge
    let at = if at_end || h > hs + 1 { spine + 1 } else { 0 };
    let mut right = node.put_or_split(at, extra.keys[0].clone(), Item::Child(extra));
    if underfull {
        let holder = match (&mut right, at_end) {
            (Some(right), true) => right,
            _ => node,
        };
        let Kind::Inner(kids) = &mut holder.kind else {
            unreachable!("the newcomer is a child")
        };
        let a = if at_end { kids.len() - 2 } else { 0 };
        rebalance(&mut holder.keys, kids, a);
    }
    right
}

/// The tree holding `l`'s entries, then `r`'s (every key of `l` below every
/// key of `r` is the caller's contract), sharing both off the seam.
fn concat<K: Clone, V: Clone>(l: Link<K, V>, r: Link<K, V>) -> Link<K, V> {
    let (mut l, mut r) = match (l, r) {
        (l, None) => return l,
        (None, r) => return r,
        (Some(l), Some(r)) => (l, r),
    };
    let (hl, hr) = (l.height(), r.height());
    let (root, right) = match hl.cmp(&hr) {
        Ordering::Greater => {
            let right = hang(&mut l, hl, r, hr, true);
            (l, right)
        }
        Ordering::Less => {
            let right = hang(&mut r, hr, l, hl, false);
            (r, right)
        }
        Ordering::Equal => {
            // side by side under a new root; an underfull one is rebalanced
            let underfull = l.len() < MIN || r.len() < MIN;
            let mut root = Node::build([child_item(l), child_item(r)]);
            if underfull {
                let node = Arc::make_mut(&mut root);
                let Kind::Inner(kids) = &mut node.kind else {
                    unreachable!("a root over two trees has children")
                };
                rebalance(&mut node.keys, kids, 0);
            }
            (root, None)
        }
    };
    let root = match right {
        Some(right) => Node::build([child_item(root), child_item(Arc::new(right))]),
        None => root,
    };
    Some(collapse(root))
}

/// A tree cut at a key: the entries below it, its value (if any), and the
/// entries above it.
type Split<K, V> = (Link<K, V>, Option<V>, Link<K, V>);

/// Cuts `node` at `key` in O(height²) work: one node per level is copied
/// and cut, and the cut halves are concatenated back onto the parts
/// below, sharing every child that lies wholly on one side of `key`.
fn split<K: Ord + Clone, V: Clone>(node: &Node<K, V>, key: &K) -> Split<K, V> {
    // a cut node as a tree of its own: none when empty, a lone child for itself
    let tree = |node: Node<K, V>| (node.len() > 0).then(|| collapse(Arc::new(node)));
    let mut below = node.clone();
    match &node.kind {
        Kind::Leaf(_) => {
            let (at, found) = match node.keys.search(key) {
                Ok(i) => (i, true),
                Err(i) => (i, false),
            };
            let mut above = below.split_off(at);
            let hit = found.then(|| match above.take(0) {
                (_, Item::Entry(v)) => v,
                (_, Item::Child(_)) => unreachable!("a leaf holds entries"),
            });
            (tree(below), hit, tree(above))
        }
        Kind::Inner(_) => {
            let mut above = below.split_off(node.keys.child_for(key));
            let (_, Item::Child(kid)) = above.take(0) else {
                unreachable!("an inner node holds children")
            };
            let (b, hit, a) = split(&kid, key);
            (concat(tree(below), b), hit, concat(a, tree(above)))
        }
    }
}

/// Which entries a merge keeps. `shared` decides the keys both sides
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

    /// The result's entry at `key`, given the operands' values there.
    fn pick<K, V>(
        self,
        key: &K,
        l: Option<&V>,
        r: Option<&V>,
        combine: &mut impl FnMut(&K, &V, &V) -> Option<V>,
    ) -> Pick<V> {
        match (l, r) {
            (Some(_), None) if self.left_only => Pick::Left,
            (None, Some(_)) if self.right_only => Pick::Right,
            (Some(x), Some(y)) => match self.shared {
                Some(true) => Pick::Left,
                Some(false) => Pick::Drop,
                None => combine(key, x, y).map_or(Pick::Drop, Pick::New),
            },
            _ => Pick::Drop,
        }
    }
}

/// A merge's outcome at one key.
enum Pick<V> {
    Left,
    Right,
    New(V),
    Drop,
}

/// An operand of a merge.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    Left,
    Right,
}

/// Walks two ascending entry streams in step, calling `f` once per key
/// with the entry each stream holds there.
fn merge_join<'a, K: Ord + 'a, A, B>(
    a: impl Iterator<Item = (&'a K, A)>,
    b: impl Iterator<Item = (&'a K, B)>,
    mut f: impl FnMut(Option<(&'a K, A)>, Option<(&'a K, B)>),
) {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    loop {
        let order = match (a.peek(), b.peek()) {
            (None, None) => return,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some((x, _)), Some((y, _))) => x.cmp(y),
        };
        match order {
            Ordering::Less => f(a.next(), None),
            Ordering::Greater => f(None, b.next()),
            Ordering::Equal => f(a.next(), b.next()),
        }
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
        self.root.as_ref().map_or(0, |n| n.size)
    }

    /// `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Levels of the underlying tree, leaves included (diagnostics; 0 for
    /// an empty map).
    pub fn tree_height(&self) -> usize {
        self.root.as_ref().map_or(0, |n| n.height())
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// Looks up `key`, returning a reference to its value if present.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get_key_value(key).map(|(_, v)| v)
    }

    /// [`Self::get`] returning the stored key too (which may differ from
    /// `key` in representation while comparing equal).
    pub fn get_key_value<Q>(&self, key: &Q) -> Option<(&K, &V)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut node = self.root.as_deref()?;
        loop {
            match &node.kind {
                Kind::Inner(kids) => node = &kids[node.keys.child_for(key)],
                Kind::Leaf(vals) => {
                    let i = node.keys.search(key).ok()?;
                    return Some((&node.keys[i], &vals[i]));
                }
            }
        }
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
        self.edge(|_| 0)
    }

    /// Returns the entry with the largest key.
    pub fn last(&self) -> Option<(&K, &V)> {
        self.edge(|node| node.len() - 1)
    }

    /// The entry reached by descending through slot `pick(node)` of each
    /// node.
    fn edge(&self, pick: impl Fn(&Node<K, V>) -> usize) -> Option<(&K, &V)> {
        let mut node = self.root.as_deref()?;
        loop {
            let i = pick(node);
            match &node.kind {
                Kind::Inner(kids) => node = &kids[i],
                Kind::Leaf(vals) => return Some((&node.keys[i], &vals[i])),
            }
        }
    }

    /// Returns the `i`-th entry in key order (0-based), skipping whole
    /// children by their sizes.
    pub fn nth(&self, mut i: usize) -> Option<(&K, &V)> {
        if i >= self.len() {
            return None;
        }
        let mut node = self.root.as_deref()?;
        loop {
            match &node.kind {
                Kind::Inner(kids) => {
                    for kid in &kids[..node.len()] {
                        if i < kid.size {
                            node = kid;
                            break;
                        }
                        i -= kid.size;
                    }
                }
                Kind::Leaf(vals) => return Some((&node.keys[i], &vals[i])),
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
        let Some(mut node) = self.root.as_deref() else {
            return 0;
        };
        let mut r = 0;
        loop {
            match &node.kind {
                Kind::Inner(kids) => {
                    let i = node.keys.child_for(key);
                    r += kids[..i].iter().map(|k| k.size).sum::<usize>();
                    node = &kids[i];
                }
                Kind::Leaf(_) => return r + node.keys.search(key).unwrap_or_else(|i| i),
            }
        }
    }

    /// Inserts `key -> val`, returning the new map and the previous value
    /// for `key` if one existed. The receiver is unchanged.
    pub fn insert(&self, key: K, val: V) -> (Self, Option<V>) {
        let mut m = self.clone();
        let old = m.set(key, val);
        (m, old)
    }

    /// Removes `key`, returning the new map and the removed value if it was
    /// present. The receiver is unchanged.
    pub fn remove<Q>(&self, key: &Q) -> (Self, Option<V>)
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if !self.contains_key(key) {
            return (self.clone(), None);
        }
        let mut m = self.clone();
        let old = m.unset(key);
        (m, Some(old))
    }

    /// [`Self::insert`] into this map: the nodes it shares with other maps
    /// are copied, the ones it holds alone are edited in place.
    fn set(&mut self, key: K, val: V) -> Option<V> {
        let Some(root) = &mut self.root else {
            self.root = Some(Node::build(iter::once((key, Item::Entry(val)))));
            return None;
        };
        let (old, split) = insert(root, key, val);
        if let Some(right) = split {
            let left = child_item(root.clone());
            *root = Node::build([left, child_item(Arc::new(right))]);
        }
        old
    }

    /// [`Self::remove`] of a present `key` from this map, copying like
    /// [`Self::set`].
    fn unset<Q>(&mut self, key: &Q) -> V
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut root = self.root.take().expect("the key is present");
        let old = remove(&mut root, key);
        self.root = (root.len() > 0).then(|| collapse(root));
        old
    }

    /// Applies `f` to the value at `key` if present; returns the new map and
    /// whether the key existed.
    pub fn update_with<Q, F>(&self, key: &Q, f: F) -> (Self, bool)
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
        F: FnOnce(&V) -> V,
    {
        match self.get_key_value(key) {
            None => (self.clone(), false),
            Some((k, v)) => (self.insert(k.clone(), f(v)).0, true),
        }
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
            m.set(k, v);
        }
        m
    }

    /// Builds a map in **O(n)** from entries sorted by strictly ascending
    /// key.
    ///
    /// This is the bulk-construction fast path: instead of n root-to-leaf
    /// insertions (O(n log n) time and allocation), the tree is assembled
    /// bottom-up, level by level, from full nodes of `W` slots — only the
    /// last two nodes of a level share a short remainder — so it allocates
    /// about n / (W − 1) nodes.
    ///
    /// Ordering is the caller's contract; it is checked with a
    /// `debug_assert` so release builds pay nothing.
    pub fn from_sorted_vec(entries: Vec<(K, V)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "from_sorted_vec: keys must be strictly ascending"
        );
        let n = entries.len();
        let mut level = pack(entries.into_iter().map(|(k, v)| (k, Item::Entry(v))), n);
        while level.len() > 1 {
            let n = level.len();
            level = pack(level.into_iter().map(child_item), n);
        }
        PMap { root: level.pop() }
    }

    /// [`Self::from_sorted_vec`] from any iterator of strictly-ascending
    /// entries (collected once, then built in O(n)).
    pub fn from_sorted_iter<I: IntoIterator<Item = (K, V)>>(it: I) -> Self {
        Self::from_sorted_vec(it.into_iter().collect())
    }

    /// **Splits** the map at `key`: the entries below it, the value stored
    /// under it (if any), and the entries above it. O(log² n) work; both
    /// halves share every subtree of `self` that lies wholly on their side.
    pub fn split(&self, key: &K) -> (Self, Option<V>, Self) {
        let (below, hit, above) = match &self.root {
            Some(root) => split(root, key),
            None => (None, None, None),
        };
        (PMap { root: below }, hit, PMap { root: above })
    }

    /// **Joins** `left`, the entry `key -> val` and `right` into one map in
    /// O(log n), sharing both operands off the seam. Every key of `left`
    /// must be below `key` and every key of `right` above it; like
    /// [`Self::from_sorted_vec`], that contract is checked by
    /// `debug_assert` only.
    pub fn join(left: &Self, key: K, val: V, right: &Self) -> Self {
        debug_assert!(
            left.last().is_none_or(|(k, _)| *k < key)
                && right.first().is_none_or(|(k, _)| key < *k),
            "join: left < key < right must hold"
        );
        // the entry goes into the shorter side, whose edge it extends
        let root = if left.tree_height() <= right.tree_height() {
            concat(left.insert(key, val).0.root, right.root.clone())
        } else {
            concat(left.root.clone(), right.insert(key, val).0.root)
        };
        PMap { root }
    }

    /// **Merge union**: every key of either map, with `self`'s entry
    /// winning when a key appears in both (left bias).
    ///
    /// For a small side of m entries and a large side of n the result
    /// shares with the larger operand every subtree the smaller one does
    /// not reach, allocating O(m · height) nodes; when the sides are
    /// comparable it costs O(n + m). Subtrees the two maps already share
    /// (`Arc::ptr_eq`, e.g. two snapshots of one relation) are taken whole
    /// without being walked, so the union of a map with a lightly edited
    /// copy of itself costs only the edited paths. Pinned by
    /// `merge_shares_the_larger_operand` below and
    /// `crates/storage/tests/prop_pmap.rs`.
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
    /// `self`'s entries. Same bounds and sharing as [`Self::merge_union`];
    /// shared subtrees are their own intersection.
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
    /// from `other`. Same bounds as [`Self::merge_union`]; removing a few
    /// keys from a large map shares everything off the removed paths, and
    /// a subtree both maps share contributes nothing without being walked.
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

    /// All six merges: a base map — one operand, or nothing — edited at
    /// the keys that can differ from it. Those keys come from the smaller
    /// operand when it is small enough to look up key by key, else from
    /// [`Self::diff`] when shared subtrees may be skipped, else from both
    /// maps walked in step. Each key is visited once, in ascending order.
    fn merge_by(
        &self,
        other: &Self,
        rule: MergeRule,
        mut combine: impl FnMut(&K, &V, &V) -> Option<V>,
    ) -> Self {
        let (a, b) = (self, other);
        if a.is_empty() || b.is_empty() {
            let keep = if a.is_empty() {
                rule.right_only
            } else {
                rule.left_only
            };
            let kept = if a.is_empty() { b } else { a };
            return if keep { kept.clone() } else { PMap::new() };
        }
        if let (Some(x), Some(y), Some(keep)) = (&a.root, &b.root, rule.shared) {
            if Arc::ptr_eq(x, y) {
                return if keep { a.clone() } else { PMap::new() };
            }
        }
        let a_small = a.len() <= b.len();
        let (small, large) = if a_small { (a, b) } else { (b, a) };
        let probe = small.len() * W * large.tree_height() <= large.len();
        let base = if probe {
            if a_small {
                rule.right_only.then_some(Side::Right)
            } else {
                rule.left_only.then_some(Side::Left)
            }
        } else {
            (rule.shared == Some(true)).then_some(Side::Left)
        };
        let mut edits: Vec<(K, Option<V>)> = Vec::new();
        let mut visit = |l: Option<(&K, &V)>, r: Option<(&K, &V)>| {
            let key = l
                .or(r)
                .map(|(k, _)| k)
                .expect("a visited key is on one side");
            let (lv, rv) = (l.map(|(_, v)| v), r.map(|(_, v)| v));
            let in_base = match base {
                Some(Side::Left) => l.is_some(),
                Some(Side::Right) => r.is_some(),
                None => false,
            };
            let edit = match rule.pick(key, lv, rv, &mut combine) {
                Pick::Left if base == Some(Side::Left) && in_base => return,
                Pick::Right if base == Some(Side::Right) && in_base => return,
                Pick::Left => lv.cloned(),
                Pick::Right => rv.cloned(),
                Pick::New(v) => Some(v),
                Pick::Drop if in_base => None,
                Pick::Drop => return,
            };
            edits.push((key.clone(), edit));
        };
        if probe && a_small && rule.left_only && rule.shared == Some(true) {
            // every entry of the small left operand is in the result as it
            // is, whatever the large one holds: no lookups
            edits.extend(a.iter().map(|(k, v)| (k.clone(), Some(v.clone()))));
        } else if probe {
            for (k, v) in small.iter() {
                let hit = large.get_key_value(k);
                if a_small {
                    visit(Some((k, v)), hit);
                } else {
                    visit(hit, Some((k, v)));
                }
            }
        } else if rule.shared.is_some() {
            for (k, l, r) in a.diff(b) {
                visit(l.map(|v| (k, v)), r.map(|v| (k, v)));
            }
        } else {
            merge_join(a.iter(), b.iter(), visit);
        }
        match base {
            Some(Side::Left) => a.edited(edits),
            Some(Side::Right) => b.edited(edits),
            None => PMap::new().edited(edits),
        }
    }

    /// `self` with each `(key, Some(value))` of `edits` set and each
    /// `(key, None)` removed (keys strictly ascending; a removed key is
    /// present): in place on a copy
    /// of the root, so each shared node an edit reaches is copied once,
    /// when the edits touch a small part of the tree; else in one linear
    /// rebuild.
    fn edited(&self, edits: Vec<(K, Option<V>)>) -> Self {
        if edits.len() * W * self.tree_height() < self.len() {
            let mut m = self.clone();
            for (k, e) in edits {
                match e {
                    Some(v) => drop(m.set(k, v)),
                    None => drop(m.unset(&k)),
                }
            }
            return m;
        }
        let mut out = Vec::with_capacity(self.len() + edits.len());
        let mut edits = edits.into_iter().peekable();
        for (k, v) in self.iter() {
            let mut replaced = false;
            while let Some((ek, e)) = edits.next_if(|(ek, _)| ek <= k) {
                replaced |= ek == *k;
                out.extend(e.map(|v| (ek, v)));
            }
            if !replaced {
                out.push((k.clone(), v.clone()));
            }
        }
        out.extend(edits.filter_map(|(k, e)| Some((k, e?))));
        Self::from_sorted_vec(out)
    }

    /// Walks the **difference** of two maps in ascending key order without
    /// visiting what they share: subtrees the maps hold in common
    /// (`Arc::ptr_eq` — the normal case for two versions of one relation)
    /// are skipped whole, so diffing two versions that differ in k keys
    /// costs about O(k · W · log n), not O(n). Each item is `(key, value in
    /// self, value in other)`: a key in only one map has `None` on the
    /// other side; a key in both is reported whenever its two entries live
    /// in different leaves, so callers compare the two values themselves
    /// (`V` need not be `PartialEq`).
    pub fn diff<'a>(&'a self, other: &'a Self) -> Diff<'a, K, V> {
        Diff {
            a: self.root.iter().map(Frame::Tree).collect(),
            b: other.root.iter().map(Frame::Tree).collect(),
        }
    }

    /// Checks the B+-tree invariants of the whole tree (test support):
    /// keys strictly ascending, each inner key the smallest key of its
    /// child, every node but the root holding `W / 2` to `W` slots (an
    /// inner root at least 2), every leaf at one depth, and every size the
    /// count of the entries below it.
    pub fn check_invariants(&self) -> bool {
        /// The subtree's size if it is well-formed; `depth` is its
        /// distance from the root, `leaves` the depth of every leaf.
        fn go<K: Ord, V>(
            node: &Node<K, V>,
            depth: usize,
            hi: Option<&K>,
            leaves: &mut Option<usize>,
        ) -> Option<usize> {
            let least = match (depth, &node.kind) {
                (0, Kind::Leaf(_)) => 1,
                (0, Kind::Inner(_)) => 2,
                _ => MIN,
            };
            let keys = &node.keys[..];
            let ok = (least..=W).contains(&keys.len())
                && keys.windows(2).all(|w| w[0] < w[1])
                && hi.is_none_or(|hi| keys[keys.len() - 1] < *hi);
            if !ok {
                return None;
            }
            let size = match &node.kind {
                Kind::Leaf(vals) => {
                    let level = *leaves.get_or_insert(depth);
                    (level == depth && vals.len() == keys.len()).then_some(keys.len())?
                }
                Kind::Inner(kids) => {
                    if kids.len() != keys.len() {
                        return None;
                    }
                    let mut size = 0;
                    for (i, kid) in kids.iter().enumerate() {
                        if kid.keys[0] != keys[i] {
                            return None;
                        }
                        size += go(kid, depth + 1, keys.get(i + 1).or(hi), leaves)?;
                    }
                    size
                }
            };
            (size == node.size).then_some(size)
        }
        self.root
            .as_deref()
            .is_none_or(|root| go(root, 0, None, &mut None).is_some())
    }

    /// Number of nodes of `self` that are not nodes of `prev` — what
    /// building `self` from `prev` had to allocate (test support: the
    /// structure-sharing pins count nodes instead of timing anything).
    /// O(|prev|) to index `prev`, then only `self`'s fresh nodes are walked.
    #[doc(hidden)]
    pub fn fresh_nodes(&self, prev: &Self) -> usize {
        fn index<K, V>(node: &Arc<Node<K, V>>, seen: &mut HashSet<*const Node<K, V>>) {
            seen.insert(Arc::as_ptr(node));
            if let Kind::Inner(kids) = &node.kind {
                kids.iter().for_each(|k| index(k, seen));
            }
        }
        fn count<K, V>(node: &Arc<Node<K, V>>, seen: &HashSet<*const Node<K, V>>) -> usize {
            if seen.contains(&Arc::as_ptr(node)) {
                return 0;
            }
            match &node.kind {
                Kind::Leaf(_) => 1,
                Kind::Inner(kids) => 1 + kids.iter().map(|k| count(k, seen)).sum::<usize>(),
            }
        }
        let mut seen = HashSet::new();
        if let Some(root) = &prev.root {
            index(root, &mut seen);
        }
        self.root.as_ref().map_or(0, |root| count(root, &seen))
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

/// In-order iterator over a [`PMap`] with optional inclusive bounds: it
/// yields one leaf's entries from its key and value arrays, then climbs to
/// the next leaf.
pub struct Iter<'a, K, V> {
    /// The inner nodes above the current leaf, each with the slot of the
    /// next child to enter.
    stack: Vec<(&'a Node<K, V>, usize)>,
    /// The current leaf's entries still to yield.
    keys: std::slice::Iter<'a, K>,
    vals: std::slice::Iter<'a, V>,
    hi: Option<&'a K>,
}

impl<'a, K: Ord, V> Iter<'a, K, V> {
    /// Descends towards the first key `>= lo`. That is the only place the
    /// lower bound is looked at: every later leaf lies right of this one.
    fn new(root: &'a Link<K, V>, lo: Option<&'a K>, hi: Option<&'a K>) -> Self {
        let mut it = Iter {
            stack: Vec::with_capacity(8),
            keys: Default::default(),
            vals: Default::default(),
            hi,
        };
        let Some(mut node) = root.as_deref() else {
            return it;
        };
        while let Kind::Inner(kids) = &node.kind {
            let i = lo.map_or(0, |lo| node.keys.child_for(lo));
            it.stack.push((node, i + 1));
            node = &kids[i];
        }
        let from = lo.map_or(0, |lo| node.keys.search(lo).unwrap_or_else(|i| i));
        it.enter(node, from);
        it
    }

    /// Yields `leaf`'s entries from slot `from` on, up to the upper bound;
    /// a leaf that reaches past it is the last one.
    fn enter(&mut self, leaf: &'a Node<K, V>, from: usize) {
        let Kind::Leaf(vals) = &leaf.kind else {
            unreachable!("the iterator descends to a leaf")
        };
        let mut to = leaf.len();
        if let Some(hi) = self.hi {
            if &leaf.keys[to - 1] > hi {
                to = from + leaf.keys[from..to].partition_point(|k| k <= hi);
                self.stack.clear();
            }
        }
        self.keys = leaf.keys[from..to].iter();
        self.vals = vals[from..to].iter();
    }
}

impl<'a, K: Ord, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let (Some(k), Some(v)) = (self.keys.next(), self.vals.next()) {
                return Some((k, v));
            }
            // climb to the nearest ancestor with a child left, then down
            // that child's left spine
            let mut node = loop {
                let top = self.stack.last_mut()?;
                let parent: &'a Node<K, V> = top.0;
                if top.1 < parent.len() {
                    top.1 += 1;
                    break &**parent.kid(top.1 - 1);
                }
                self.stack.pop();
            };
            while let Kind::Inner(kids) = &node.kind {
                self.stack.push((node, 1));
                node = &kids[0];
            }
            self.enter(node, 0);
        }
    }
}

/// One pending step of a [`Diff`] cursor: a subtree not yet opened, or an
/// entry of a leaf already opened.
enum Frame<'a, K, V> {
    Tree(&'a Arc<Node<K, V>>),
    Entry(&'a K, &'a V),
}

impl<K, V> Clone for Frame<'_, K, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K, V> Copy for Frame<'_, K, V> {}

/// Opens the subtree on top of an in-order stack: its children, or its
/// entries, take its place.
fn open<K, V>(stack: &mut Vec<Frame<'_, K, V>>) {
    if let Some(Frame::Tree(n)) = stack.pop() {
        match &n.kind {
            Kind::Leaf(vals) => {
                let entries = n.keys.iter().zip(vals.iter());
                stack.extend(entries.rev().map(|(k, v)| Frame::Entry(k, v)));
            }
            Kind::Inner(kids) => stack.extend(kids.iter().rev().map(Frame::Tree)),
        }
    }
}

/// The iterator behind [`PMap::diff`]: two in-order cursors advanced in
/// step. When both are about to enter the *same* subtree it is skipped on
/// both sides; otherwise the larger pending subtree is opened, which is
/// what brings the cursors back onto a shared subtree after an edit split
/// or merged nodes on one side.
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
                (Some(Frame::Entry(xk, xv)), Some(Frame::Entry(yk, yv))) => match xk.cmp(yk) {
                    Ordering::Less => {
                        self.a.pop();
                        return Some((xk, Some(xv), None));
                    }
                    Ordering::Greater => {
                        self.b.pop();
                        return Some((yk, None, Some(yv)));
                    }
                    Ordering::Equal => {
                        self.a.pop();
                        self.b.pop();
                        if !std::ptr::eq(xv, yv) {
                            return Some((xk, Some(xv), Some(yv)));
                        }
                    }
                },
                (Some(Frame::Entry(k, v)), None) => {
                    self.a.pop();
                    return Some((k, Some(v), None));
                }
                (None, Some(Frame::Entry(k, v))) => {
                    self.b.pop();
                    return Some((k, None, Some(v)));
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

    /// The B+-tree height bound: a tree of height h ≥ 2 holds at least
    /// 2 · (W/2)^(h−1) entries (an inner root has two children, every
    /// other node is half full).
    fn height_bound(n: usize) -> usize {
        let mut h = 1;
        while 2 * MIN.pow(h as u32) <= n {
            h += 1;
        }
        h
    }

    #[test]
    fn ascending_insert_stays_balanced() {
        let m = PMap::from_iter((0..1024).map(|i| (i, ())));
        assert!(m.check_invariants());
        assert!(
            m.tree_height() <= height_bound(1024),
            "height {} too large",
            m.tree_height()
        );
    }

    #[test]
    fn descending_insert_stays_balanced() {
        let m = PMap::from_iter((0..1024).rev().map(|i| (i, ())));
        assert!(m.check_invariants());
        assert!(m.tree_height() <= height_bound(1024));
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
        assert_eq!(base.diff(&base).count(), 0);
        // an update copies one path: the diff visits the entries of the one
        // copied leaf and nothing else
        let updated = base.insert(40_000, -1).0;
        let seen: Vec<_> = base.diff(&updated).collect();
        assert!(seen.len() <= W, "{} items for a one-key update", seen.len());
        let real: Vec<_> = seen.iter().filter(|(_, a, b)| a != b).collect();
        assert_eq!(real, vec![&(&40_000, Some(&20_000), Some(&-1))]);
        // inserts split full leaves and removes shrink them: the trees are
        // shaped differently, the walk still re-aligns on the shared subtrees
        let mut edited = base.clone();
        for i in 0..8 {
            edited = edited.insert(2 * (i * 7919) + 1, -2).0;
            edited = edited.remove(&(2 * (i * 6007 + 3))).0;
        }
        let seen: Vec<_> = base.diff(&edited).collect();
        assert!(
            seen.len() <= 16 * 2 * W,
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
