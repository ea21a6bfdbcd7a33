//! Deltas over the persistent structures: what changed between two
//! versions of a relation or of a whole database.
//!
//! This is the vocabulary incremental view maintenance (the `fdm-fql`
//! `ivm` module) and the transaction layer's view catalog speak to each
//! other: a commit's writeset, or a plain before/after pair of database
//! values, is normalized into a [`DbDelta`] — per-entry row changes where
//! both sides are relations, an explicit [`EntryDelta::Replaced`] marker
//! where an entry was rebound wholesale — and propagated through
//! maintained query plans instead of recomputing them.
//!
//! A commit's own writes travel as [`Op`]s: the transaction stages them
//! with [`apply_op`], the commit's record keeps them, the WAL stores
//! them, and [`apply_ops`] replays them onto a root with the same
//! [`apply_op`].
//!
//! Diffing leans on two things. Structure sharing: versions of a stored
//! relation share every subtree no write touched, and
//! [`fdm_storage::PMap::diff`] skips shared subtrees whole, so a diff costs
//! in proportion to what changed. And a cheap no-op test
//! ([`TupleF::same_data`]): two sides over one shape compare slot by slot
//! up to the first difference, and any other pair compares its cached
//! [`DataKey`](crate::DataKey) fingerprints — one hash compare in the
//! steady state, the same trick the merge setops use.

use crate::error::{Name, Result};
use crate::function::FnValue;
use crate::relation::RelationF;
use crate::tuple::TupleF;
use crate::value::Value;
use crate::DatabaseF;
use std::cmp::Ordering;
use std::sync::Arc;

/// One key's transition in a relation: `old` is the tuple before, `new`
/// the tuple after; `None` on either side means the key was absent there.
/// An insert has no `old`, a remove has no `new`, an update has both.
#[derive(Debug, Clone)]
pub struct TupleChange {
    /// The relation key the change happened under.
    pub key: Value,
    /// The tuple previously stored under `key`, if any.
    pub old: Option<Arc<TupleF>>,
    /// The tuple now stored under `key`, if any.
    pub new: Option<Arc<TupleF>>,
}

impl TupleChange {
    /// True when the key appeared (no `old`).
    pub fn is_insert(&self) -> bool {
        self.old.is_none() && self.new.is_some()
    }

    /// True when the key disappeared (no `new`).
    pub fn is_remove(&self) -> bool {
        self.old.is_some() && self.new.is_none()
    }

    /// True when the key exists on both sides (with different data —
    /// diffing never emits a no-op change).
    pub fn is_update(&self) -> bool {
        self.old.is_some() && self.new.is_some()
    }
}

/// What happened to one database entry between two versions.
#[derive(Debug, Clone)]
pub enum EntryDelta {
    /// Both sides are relations and the change is expressible as row
    /// transitions under stable keys.
    Rows(Vec<TupleChange>),
    /// The entry was rebound wholesale (assigned a new value, dropped,
    /// created, or changed kind): consumers must re-read the entry from
    /// the after-database and re-derive — the explicit fallback marker
    /// incremental maintenance counts when it cannot stay incremental.
    Replaced,
}

/// A database-level delta: the changed entries, by name. Unchanged
/// entries are absent — an empty delta means the two databases hold
/// data-identical relation entries.
#[derive(Debug, Clone, Default)]
pub struct DbDelta {
    /// `(entry name, what happened)` for every changed entry.
    pub entries: Vec<(Name, EntryDelta)>,
}

impl DbDelta {
    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The delta for one entry, if it changed.
    pub fn entry(&self, name: &str) -> Option<&EntryDelta> {
        self.entries
            .iter()
            .find(|(n, _)| n.as_ref() == name)
            .map(|(_, d)| d)
    }

    /// Diffs two database values into a delta: relation entries present
    /// on both sides diff row-by-row ([`diff_relations`] — delta-sized for
    /// stored relations, so two roots one commit apart cost O(log n), not
    /// a walk of every relation); entries that
    /// appeared, disappeared, or are not relations on both sides become
    /// [`EntryDelta::Replaced`]. Non-relation entries that are untouched
    /// (same underlying value on both sides) are skipped.
    pub fn between(before: &DatabaseF, after: &DatabaseF) -> Result<DbDelta> {
        let mut entries: Vec<(Name, EntryDelta)> = Vec::new();
        let mut seen: Vec<&Name> = Vec::new();
        for (name, b) in before.iter() {
            seen.push(name);
            match (b, after.iter().find(|(n, _)| *n == name).map(|(_, e)| e)) {
                (FnValue::Relation(rb), Some(FnValue::Relation(ra))) => {
                    if Arc::ptr_eq(rb, ra) {
                        continue; // structurally shared: provably unchanged
                    }
                    let changes = diff_relations(rb, ra)?;
                    if !changes.is_empty() {
                        entries.push((name.clone(), EntryDelta::Rows(changes)));
                    }
                }
                (FnValue::Relation(_), _) => entries.push((name.clone(), EntryDelta::Replaced)),
                // non-relation entries: replaced unless identical
                (vb, Some(va)) if vb.identity() == va.identity() => {}
                _ => entries.push((name.clone(), EntryDelta::Replaced)),
            }
        }
        for (name, _) in after.iter() {
            if !seen.contains(&name) {
                entries.push((name.clone(), EntryDelta::Replaced));
            }
        }
        Ok(DbDelta { entries })
    }
}

/// One key of a diff walk: the key and its tuple on either side.
type Transition<'a> = (&'a Value, Option<&'a Arc<TupleF>>, Option<&'a Arc<TupleF>>);

/// True when a key's transition is no change at all: the same data on
/// both sides ([`TupleF::same_data`]).
fn unchanged((_, old, new): &Transition<'_>) -> bool {
    matches!((old, new), (Some(o), Some(n)) if o.same_data(n))
}

/// The two-pointer merge over two key-sorted entry lists, for bodies that
/// are not one stored map (multi, computed, hybrid): every key of either
/// list, in order, with its tuple on each side.
fn walk_sorted<'a>(
    a: &'a [(Value, Arc<TupleF>)],
    b: &'a [(Value, Arc<TupleF>)],
) -> impl Iterator<Item = Transition<'a>> {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let order = match (a.get(i), b.get(j)) {
            (Some((ka, _)), Some((kb, _))) => ka.cmp(kb),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return None,
        };
        let old = (order != Ordering::Greater).then(|| &a[i]);
        let new = (order != Ordering::Less).then(|| &b[j]);
        i += usize::from(old.is_some());
        j += usize::from(new.is_some());
        let key = &old.or(new).expect("one side is present").0;
        Some((key, old.map(|e| &e.1), new.map(|e| &e.1)))
    })
}

/// Diffs two relation values by stored key, emitting one [`TupleChange`]
/// per key whose tuple appeared, disappeared, or changed data.
///
/// Two plain stored relations are diffed through
/// [`fdm_storage::PMap::diff`], which skips every subtree the two versions
/// share: two snapshots that differ in k rows cost about O(k · log n), not
/// O(n) (the visit count is pinned by `diff_skips_shared_subtrees` in
/// `fdm-storage`'s `pmap.rs`; `snapshot_diff_matches_the_sorted_walk`
/// below pins the result). Other bodies fall back to a two-pointer merge
/// over their enumerated tuples.
pub fn diff_relations(old: &RelationF, new: &RelationF) -> Result<Vec<TupleChange>> {
    fn changes<'a>(walk: impl Iterator<Item = Transition<'a>>) -> Vec<TupleChange> {
        walk.filter(|t| !unchanged(t))
            .map(|(key, old, new)| TupleChange {
                key: key.clone(),
                old: old.cloned(),
                new: new.cloned(),
            })
            .collect()
    }
    Ok(match (old.stored_map(), new.stored_map()) {
        (Some(a), Some(b)) => changes(a.diff(b)),
        _ => changes(walk_sorted(&old.tuples()?, &new.tuples()?)),
    })
}

/// One recorded write: what a transaction stages, a commit's record
/// keeps and a WAL record stores. [`apply_ops`] replays a list of them
/// onto a root.
#[derive(Debug, Clone)]
pub enum Op {
    /// Insert-or-replace one tuple.
    Upsert {
        /// Relation entry name.
        rel: Name,
        /// Tuple key.
        key: Value,
        /// The final tuple value as of commit time.
        tuple: Arc<TupleF>,
    },
    /// Delete one tuple.
    Delete {
        /// Relation entry name.
        rel: Name,
        /// Tuple key.
        key: Value,
    },
    /// Replace (or create) a whole database entry.
    Assign {
        /// Entry name.
        name: Name,
        /// The new function bound under `name`.
        value: FnValue,
    },
    /// Remove a whole database entry.
    Drop {
        /// Entry name.
        name: Name,
    },
}

/// Applies one op to `db` in place and returns the tuple it replaced in
/// the stored map it wrote (`None` for an insert, a multi-body delete and
/// an entry op). This is the one write path: a transaction stages its
/// writes through it, and [`apply_ops`] replays with it. What `db` shares
/// with other database values is copied, what it holds alone is edited in
/// place, so a value taken from `db` before never changes. A failing op
/// leaves `db`'s contents as they were.
pub fn apply_op(db: &mut DatabaseF, op: &Op) -> Result<Option<Arc<TupleF>>> {
    match op {
        Op::Upsert { rel, key, tuple } => db.relation_mut(rel)?.set(key.clone(), Arc::clone(tuple)),
        Op::Delete { rel, key } => db.relation_mut(rel)?.unset(key),
        Op::Assign { name, value } => {
            db.set_entry(name.clone(), value.clone());
            Ok(None)
        }
        Op::Drop { name } => db.unset_entry(name).map(|()| None),
    }
}

/// Applies `ops` onto a copy of `base`, in order, handing `replaced` the
/// tuple each op replaced ([`apply_op`]). This is the one replay: the
/// snapshot-isolation merge (disjoint writers replaying onto a newer
/// root), crash recovery (WAL records onto a checkpoint) and time travel
/// (undos onto a newer version) all run it. The first op copies the
/// paths it touches out of `base`; the ops after it edit those copies in
/// place.
pub fn apply_ops(
    base: &DatabaseF,
    ops: &[Op],
    mut replaced: impl FnMut(Option<Arc<TupleF>>),
) -> Result<DatabaseF> {
    let mut db = base.clone();
    for op in ops {
        replaced(apply_op(&mut db, op)?);
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FnValue;

    fn rel(rows: &[(i64, &str, i64)]) -> RelationF {
        let mut r = RelationF::new("people", &["id"]);
        for (id, name, age) in rows {
            r = r
                .insert(
                    Value::Int(*id),
                    TupleF::builder(format!("p{id}"))
                        .attr("name", *name)
                        .attr("age", *age)
                        .build(),
                )
                .unwrap();
        }
        r
    }

    #[test]
    fn diff_relations_classifies_all_transitions() {
        let old = rel(&[(1, "a", 10), (2, "b", 20), (3, "c", 30)]);
        let new = rel(&[(2, "b", 21), (3, "c", 30), (4, "d", 40)]);
        let d = diff_relations(&old, &new).unwrap();
        assert_eq!(d.len(), 3);
        assert!(d[0].is_remove() && d[0].key == Value::Int(1));
        assert!(d[1].is_update() && d[1].key == Value::Int(2));
        assert!(d[2].is_insert() && d[2].key == Value::Int(4));
        // key 3 is untouched: no change emitted
        assert!(d.iter().all(|c| c.key != Value::Int(3)));
    }

    #[test]
    fn snapshot_diff_matches_the_sorted_walk() {
        // a few thousand rows, then edits that rotate the tree: the
        // structural diff must report exactly what the linear walk does
        let mut b = crate::RelationBuilder::new("people", &["id"]);
        for id in 0..4000i64 {
            b.push(
                Value::Int(2 * id),
                TupleF::builder("p").attr("age", id % 90).build(),
            );
        }
        let old = b.build().unwrap();
        let mut new = old.clone();
        for i in 0..25i64 {
            let row = |age: i64| TupleF::builder("p").attr("age", age).build();
            new = new.upsert(Value::Int(2 * (i * 151) + 1), row(i)).unwrap(); // insert
            new = new.upsert(Value::Int(2 * (i * 149)), row(-1)).unwrap(); // update
            new = new.delete(&Value::Int(2 * (i * 157 + 3))).unwrap(); // remove
            let same = 2 * (i * 139 + 2); // rewritten with identical data: not a change
            new = new.upsert(Value::Int(same), row((same / 2) % 90)).unwrap();
        }
        let shape = |c: &TupleChange| (c.key.clone(), c.old.is_some(), c.new.is_some());
        let got: Vec<_> = diff_relations(&old, &new)
            .unwrap()
            .iter()
            .map(shape)
            .collect();
        let (a, b) = (old.tuples().unwrap(), new.tuples().unwrap());
        let want: Vec<_> = walk_sorted(&a, &b)
            .filter(|t| !unchanged(t))
            .map(|(k, o, n)| (k.clone(), o.is_some(), n.is_some()))
            .collect();
        assert_eq!(got, want);
        assert_eq!(got.len(), 75);
    }

    #[test]
    fn diff_relations_is_empty_on_data_identical_inputs() {
        let a = rel(&[(1, "a", 10)]);
        let b = rel(&[(1, "a", 10)]);
        assert!(diff_relations(&a, &b).unwrap().is_empty());
        assert!(diff_relations(&a, &a).unwrap().is_empty());
    }

    #[test]
    fn db_delta_between_marks_rebinds_as_replaced() {
        let before = DatabaseF::new("db")
            .with_relation(rel(&[(1, "a", 10)]))
            .with_entry("gone", FnValue::from(rel(&[(9, "z", 1)]).renamed("gone")));
        let after = DatabaseF::new("db")
            .with_relation(rel(&[(1, "a", 11)]))
            .with_entry("fresh", FnValue::from(rel(&[(7, "q", 2)]).renamed("fresh")));
        let d = DbDelta::between(&before, &after).unwrap();
        assert!(matches!(
            d.entry("people"),
            Some(EntryDelta::Rows(c)) if c.len() == 1 && c[0].is_update()
        ));
        assert!(matches!(d.entry("gone"), Some(EntryDelta::Replaced)));
        assert!(matches!(d.entry("fresh"), Some(EntryDelta::Replaced)));
        assert!(d.entry("nope").is_none());
        // identical databases: empty delta (structural sharing fast path)
        assert!(DbDelta::between(&after, &after).unwrap().is_empty());
    }
}
