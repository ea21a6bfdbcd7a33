//! The commit ring: one `CommitRecord` per retained version, and time
//! travel over them.
//!
//! The whole database function is a persistent value, so the history
//! keeps **one root**, the newest, and per retained version the record
//! of the commit that made it. Validation reads the record's ops,
//! [`History::as_of`] its undo and the view catalog its delta; the record
//! leaves the ring with its version, so one capacity bounds all three. A
//! superseded path is freed a few commits later, while it is still in
//! cache. An older version is built only when asked for — from the
//! nearest newer root it knows, applying undos newest first — and kept in
//! its entry until evicted: time travel is paid for by its caller, never
//! by a commit. It is an FDM extension the paper's model makes nearly
//! trivial (no boundary between data that is *current* and *past*).

use fdm_core::delta::{DbDelta, EntryDelta, TupleChange};
use fdm_core::{apply_op, DatabaseF, FdmError, Name, Op, Result, TupleF, Value};
use fdm_storage::Version;
use parking_lot::RwLock;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// One installed commit, as every later reader needs it.
///
/// A point write on a relation that is one plain stored map before the
/// commit is undone and diffed row by row, from the tuple it replaced.
/// Any other write — an `Assign`, a `Drop`, or a point write on a
/// relation that is not one plain stored map, where what the map held
/// need not be all there is — rewrites its entry *whole*: the undo
/// restores the entry's old value, and the delta reports it
/// [`EntryDelta::Replaced`].
pub(crate) struct CommitRecord {
    /// The group's ops, in order.
    ops: Box<[Op]>,
    /// Beside each op, the tuple its point write replaced (`None` for an
    /// insert and for an entry op).
    replaced: Box<[Option<Arc<TupleF>>]>,
    /// The entries rewritten whole, in first-write order.
    whole: Box<[Name]>,
    /// What undoes `whole`: an `Assign` of each entry's old value, or a
    /// `Drop` of one that did not exist.
    restore: Box<[Op]>,
}

impl CommitRecord {
    /// The record of `ops`, which turned `before` into `after`;
    /// `replaced[i]` is the tuple `ops[i]` replaced.
    pub(crate) fn new(
        before: &DatabaseF,
        after: &DatabaseF,
        ops: Vec<Op>,
        replaced: Vec<Option<Arc<TupleF>>>,
    ) -> CommitRecord {
        let mut whole: Vec<Name> = Vec::new();
        for op in &ops {
            let name = match op {
                Op::Upsert { rel, .. } | Op::Delete { rel, .. }
                    if before.relation_ref(rel).is_ok_and(|r| r.is_plain_stored()) =>
                {
                    continue
                }
                Op::Upsert { rel: name, .. }
                | Op::Delete { rel: name, .. }
                | Op::Assign { name, .. }
                | Op::Drop { name } => name,
            };
            if !whole.contains(name) {
                whole.push(name.clone());
            }
        }
        let restore = whole.iter().filter_map(|name| match before.entry(name) {
            Ok(value) => Some(Op::Assign {
                name: name.clone(),
                value: value.clone(),
            }),
            Err(_) => after
                .contains(name)
                .then(|| Op::Drop { name: name.clone() }),
        });
        CommitRecord {
            restore: restore.collect(),
            ops: ops.into_boxed_slice(),
            replaced: replaced.into_boxed_slice(),
            whole: whole.into_boxed_slice(),
        }
    }

    /// The group's ops, in order.
    pub(crate) fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// `true` if the commit rewrote an entry whole: its delta then has a
    /// [`EntryDelta::Replaced`] entry, which a view reads the root for.
    pub(crate) fn rewrites_whole(&self) -> bool {
        !self.whole.is_empty()
    }

    /// The point writes kept row by row: `(relation, key, op index)`.
    fn point_writes(&self) -> impl DoubleEndedIterator<Item = (&Name, &Value, usize)> {
        let rows = self.ops.iter().enumerate().filter_map(|(at, op)| match op {
            Op::Upsert { rel, key, .. } | Op::Delete { rel, key } => Some((rel, key, at)),
            Op::Assign { .. } | Op::Drop { .. } => None,
        });
        rows.filter(|(rel, ..)| !self.whole.contains(rel))
    }

    /// The ops that turn the commit's root back into its predecessor's.
    /// Point writes are inverted in reverse order, so the undo passes back
    /// through the forward states and a unique constraint holds at every
    /// step; then each entry rewritten whole is restored.
    pub(crate) fn undo(&self) -> Vec<Op> {
        let mut undo = Vec::with_capacity(self.ops.len());
        for (rel, key, at) in self.point_writes().rev() {
            let (rel, key) = (rel.clone(), key.clone());
            undo.push(match &self.replaced[at] {
                Some(tuple) => Op::Upsert {
                    rel,
                    key,
                    tuple: Arc::clone(tuple),
                },
                None => Op::Delete { rel, key },
            });
        }
        undo.extend(self.restore.iter().cloned());
        undo
    }

    /// The commit's [`DbDelta`], read off its own writes with no root
    /// lookup: a key's old side is what its first write replaced, its new
    /// side what its last write left. ≡ `DbDelta::between` of the roots on
    /// either side by key and data, except that an entry rewritten whole
    /// is reported [`EntryDelta::Replaced`] (`commit_delta_equals_between`).
    pub(crate) fn delta(&self) -> DbDelta {
        let mut writes: Vec<(&Name, &Value, usize)> = self.point_writes().collect();
        writes.sort_unstable();
        let mut entries: Vec<(Name, EntryDelta)> = Vec::new();
        for of_rel in writes.chunk_by(|a, b| a.0 == b.0) {
            let mut changes = Vec::new();
            for of_key in of_rel.chunk_by(|a, b| a.1 == b.1) {
                let ((_, key, first), (.., last)) = (of_key[0], of_key[of_key.len() - 1]);
                let new = match &self.ops[last] {
                    Op::Upsert { tuple, .. } => Some(Arc::clone(tuple)),
                    _ => None,
                };
                changes.extend(change(key.clone(), self.replaced[first].clone(), new));
            }
            if !changes.is_empty() {
                entries.push((of_rel[0].0.clone(), EntryDelta::Rows(changes)));
            }
        }
        let whole = self
            .whole
            .iter()
            .map(|name| (name.clone(), EntryDelta::Replaced));
        entries.extend(whole);
        DbDelta { entries }
    }
}

/// One key's transition, `None` when it is none: absent on both sides,
/// or the same data ([`TupleF::same_data`]).
fn change(key: Value, old: Option<Arc<TupleF>>, new: Option<Arc<TupleF>>) -> Option<TupleChange> {
    match (&old, &new) {
        (None, None) => None,
        (Some(o), Some(n)) if o.same_data(n) => None,
        _ => Some(TupleChange { key, old, new }),
    }
}

/// A bounded ring of committed database versions.
///
/// # Examples
///
/// ```
/// use fdm_core::{DatabaseF, RelationF, TupleF, Value};
/// use fdm_txn::Store;
///
/// let store = Store::new(DatabaseF::new("d").with_relation(RelationF::new("r", &["k"])));
/// store.upsert_one("r", Value::Int(1), TupleF::builder("t").attr("v", 1).build()).unwrap();
/// let history = store.history();
/// assert_eq!(history.versions(), vec![0, 1]);
/// assert_eq!(history.as_of(0).unwrap().relation("r").unwrap().len(), 0);
/// assert_eq!(history.latest().unwrap().0, 1);
/// ```
pub struct History {
    /// Crate-visible so a store test can hold the write lock.
    pub(crate) inner: RwLock<Versions>,
    capacity: usize,
}

/// How many pushes late [`History::push`] hands back a head a record
/// superseded. Freed by the commit that superseded it or the next one —
/// microseconds after the other client's commit built part of it — a
/// path cost two clients on a 2-vCPU host: it put the
/// `serve_write_durable` benchmark's commit p98 at ≈ 180 µs, against
/// ≈ 120 µs when roots were kept for the whole window. Eight pushes late
/// it read ≈ 110 µs, and the single-client `view_commit` the same as with
/// no delay (see `docs/TRANSACTIONS.md`, "Time travel").
const SUPERSEDED_DELAY: usize = 8;

/// The retained window: the newest root and one entry per version.
#[derive(Default)]
pub(crate) struct Versions {
    /// The newest version's root.
    head: Option<DatabaseF>,
    /// Consecutive versions, ascending; the last one's root is `head`.
    entries: VecDeque<Entry>,
    /// The last [`SUPERSEDED_DELAY`] heads a record superseded, oldest
    /// first.
    superseded: VecDeque<DatabaseF>,
}

/// One retained version.
pub(crate) struct Entry {
    version: Version,
    /// The commit that made this version; `None` for the version a store
    /// starts at, which no retained commit made.
    record: Option<Arc<CommitRecord>>,
    /// This version's root, once an [`History::as_of`] has built it.
    root: OnceLock<DatabaseF>,
}

impl History {
    /// Creates a history retaining up to `capacity` versions.
    pub(crate) fn new(capacity: usize) -> History {
        History {
            inner: RwLock::new(Versions::default()),
            capacity: capacity.max(1),
        }
    }

    /// Makes `db` the head at `version`; `record` is the commit that made
    /// it, `None` only for the version a store starts at. The superseded
    /// head is handed back [`SUPERSEDED_DELAY`] pushes later, and the entry
    /// the capacity bound evicts beside it: the commit path frees both only
    /// after it has left the sequencer.
    ///
    /// # Panics
    ///
    /// If `version` does not follow the newest one retained: history is
    /// append-only and gapless.
    pub(crate) fn push(
        &self,
        version: Version,
        db: DatabaseF,
        record: Option<Arc<CommitRecord>>,
    ) -> (Option<DatabaseF>, Option<Entry>) {
        let mut g = self.inner.write();
        let newest = g.entries.back().map(|e| e.version);
        assert!(
            newest.is_none_or(|newest| newest + 1 == version),
            "history is append-only and gapless: v{version} pushed after v{newest:?}"
        );
        debug_assert!(
            record.is_some() || newest.is_none(),
            "only a start has no record"
        );
        let mut head = None;
        if let Some(root) = g.head.replace(db) {
            g.superseded.push_back(root);
            if g.superseded.len() > SUPERSEDED_DELAY {
                head = g.superseded.pop_front();
            }
        }
        let evicted = if g.entries.len() == self.capacity {
            g.entries.pop_front()
        } else {
            None
        };
        g.entries.push_back(Entry {
            version,
            record,
            root: OnceLock::new(),
        });
        (head, evicted)
    }

    /// Calls `f` on the record of each version in `(after, up_to]`, oldest
    /// first, under the read lock, and stops at the first `Some` it returns
    /// — validation's path, which clones nothing. Errors with
    /// [`FdmError::VersionEvicted`] naming version `after + 1` when the
    /// ring no longer holds its record.
    pub(crate) fn scan<T>(
        &self,
        after: Version,
        up_to: Version,
        mut f: impl FnMut(Version, &Arc<CommitRecord>) -> Option<T>,
    ) -> Result<Option<T>> {
        if up_to <= after {
            return Ok(None);
        }
        let g = self.inner.read();
        if g.entries.back().is_none_or(|e| e.version <= after) {
            return Ok(None);
        }
        let Some(from) = g.index(after + 1) else {
            return Err(g.evicted(after + 1));
        };
        for e in g.entries.range(from..).take_while(|e| e.version <= up_to) {
            let Some(record) = &e.record else {
                return Err(g.evicted(after + 1));
            };
            if let Some(found) = f(e.version, record) {
                return Ok(Some(found));
            }
        }
        Ok(None)
    }

    /// The records of the versions in `(after, up_to]`, oldest first,
    /// cloned out under the read lock ([`History::scan`]).
    pub(crate) fn records(
        &self,
        after: Version,
        up_to: Version,
    ) -> Result<Vec<(Version, Arc<CommitRecord>)>> {
        let mut records = Vec::new();
        self.scan(after, up_to, |v, record| {
            records.push((v, Arc::clone(record)));
            None::<()>
        })?;
        Ok(records)
    }

    /// The snapshot that was current *at* `version`: the newest retained
    /// version ≤ `version`. Errors with [`FdmError::VersionEvicted`] if
    /// that version is older than everything retained.
    ///
    /// The head and a version whose root is known answer by a clone.
    /// Otherwise the read lock is held only to clone the nearest newer
    /// known root (or the head) and the records in between; their undos
    /// are applied after it, newest first, and the result is kept in the
    /// version's entry until it is evicted.
    pub fn as_of(&self, version: Version) -> Result<DatabaseF> {
        let (at, start, records) = {
            let g = self.inner.read();
            let Some(i) = g.index(version) else {
                return Err(g.evicted(version));
            };
            let entry = &g.entries[i];
            let known = if i + 1 == g.entries.len() {
                g.head.as_ref()
            } else {
                entry.root.get()
            };
            if let Some(db) = known {
                return Ok(db.clone());
            }
            let mut start = None;
            let mut records = Vec::new();
            for newer in g.entries.range(i + 1..) {
                let record = newer
                    .record
                    .as_ref()
                    .expect("only the oldest entry lacks a record");
                records.push(Arc::clone(record));
                if let Some(db) = newer.root.get() {
                    start = Some(db.clone());
                    break;
                }
            }
            let start = start
                .or_else(|| g.head.clone())
                .expect("the newest entry's root");
            (entry.version, start, records)
        };
        // the first undo copies what it touches out of `start`; the rest
        // edit those copies in place
        let mut db = start;
        for record in records.iter().rev() {
            for op in &record.undo() {
                apply_op(&mut db, op)?;
            }
        }
        let kept = {
            let g = self.inner.read();
            let entry = g.index(at).filter(|&i| g.entries[i].version == at);
            entry.map(|i| g.entries[i].root.get_or_init(|| db.clone()).clone())
        };
        Ok(kept.unwrap_or(db))
    }

    /// Drops everything but the newest `keep_last_n` versions (min 1),
    /// bounding the ring explicitly; returns how many entries were
    /// evicted. Reads inside the kept window are unaffected; reads below
    /// it error with [`FdmError::VersionEvicted`], and a transaction whose
    /// snapshot is below it can no longer be validated. What is evicted is
    /// freed after the history lock is released, so a commit never waits
    /// for a compaction's frees.
    pub fn compact(&self, keep_last_n: usize) -> usize {
        let keep = keep_last_n.max(1);
        let evicted: Vec<Entry> = {
            let mut g = self.inner.write();
            let excess = g.entries.len().saturating_sub(keep);
            g.entries.drain(..excess).collect()
        };
        evicted.len()
    }

    /// The oldest retained version, if any.
    pub fn oldest(&self) -> Option<Version> {
        self.inner.read().entries.front().map(|e| e.version)
    }

    /// The newest recorded version, if any.
    pub fn latest(&self) -> Option<(Version, DatabaseF)> {
        let g = self.inner.read();
        Some((g.entries.back()?.version, g.head.clone()?))
    }

    /// Number of retained versions.
    pub fn len(&self) -> usize {
        self.inner.read().entries.len()
    }

    /// `true` if no versions are recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.read().entries.is_empty()
    }

    /// All retained versions, oldest first.
    pub fn versions(&self) -> Vec<Version> {
        self.inner
            .read()
            .entries
            .iter()
            .map(|e| e.version)
            .collect()
    }

    /// The retained versions a commit made, oldest first: those whose
    /// record validation can read.
    pub(crate) fn committed(&self) -> Vec<Version> {
        let g = self.inner.read();
        let made = g.entries.iter().filter(|e| e.record.is_some());
        made.map(|e| e.version).collect()
    }
}

impl Versions {
    /// Where the newest version ≤ `version` sits: the ring's versions are
    /// consecutive, so that is an offset from the oldest, with no search
    /// through cold entries. `None` below the ring.
    fn index(&self, version: Version) -> Option<usize> {
        let at = version.checked_sub(self.entries.front()?.version)?;
        Some(at.min(self.entries.len() as Version - 1) as usize)
    }

    /// The typed error for a `version` the ring does not hold.
    fn evicted(&self, version: Version) -> FdmError {
        FdmError::VersionEvicted {
            version,
            oldest: self.entries.front().map(|e| e.version),
            newest: self.entries.back().map(|e| e.version),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Store, StoreConfig};
    use fdm_core::{RelationF, TupleF, Value};
    use fdm_fql::difference;

    /// A store whose version v holds v rows in `r`, `versions` versions
    /// in all, retaining up to `capacity`.
    fn store_with(versions: i64, capacity: usize) -> Arc<Store> {
        let db = DatabaseF::new("d").with_relation(RelationF::new("r", &["k"]));
        let config = StoreConfig {
            history_capacity: capacity,
            ..StoreConfig::default()
        };
        let store = Store::with_config(db, config);
        for k in 1..versions {
            let row = TupleF::builder("t").attr("v", k).build();
            store.upsert_one("r", Value::Int(k), row).unwrap();
        }
        store
    }

    fn rows_at(history: &History, v: Version) -> usize {
        history.as_of(v).unwrap().relation("r").unwrap().len()
    }

    #[test]
    fn as_of_finds_enclosing_version() {
        let store = store_with(8, 16);
        let h = store.history();
        assert_eq!(rows_at(h, 0), 0);
        assert_eq!(rows_at(h, 3), 3);
        assert_eq!(rows_at(h, 100), 7, "past the head: the head");
        assert_eq!(h.versions(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn eviction_is_bounded_and_reported() {
        let store = store_with(3, 2);
        let h = store.history();
        assert_eq!(h.len(), 2);
        let err = h.as_of(0).unwrap_err();
        assert!(err.to_string().contains("no longer retained"), "{err}");
        assert!(
            err.to_string().contains("version 0"),
            "error names the evicted version: {err}"
        );
        assert!(
            err.to_string().contains("v1..=v2"),
            "error names the retention window: {err}"
        );
        assert!(
            matches!(
                err,
                FdmError::VersionEvicted {
                    version: 0,
                    oldest: Some(1),
                    newest: Some(2)
                }
            ),
            "eviction is a typed error: {err:?}"
        );
        assert_eq!(rows_at(h, 1), 1);
        assert_eq!(h.oldest(), Some(1));
    }

    fn empty_record() -> Option<Arc<CommitRecord>> {
        let db = DatabaseF::new("d");
        Some(Arc::new(CommitRecord::new(
            &db,
            &db,
            Vec::new(),
            Vec::new(),
        )))
    }

    /// Replaces `out_of_order_records_are_insert_sorted`: the commit
    /// sequencer records versions in order, so the history no longer
    /// sorts — recording an older (or the same) version is a bug.
    #[test]
    #[should_panic(expected = "append-only")]
    fn recording_an_older_version_panics() {
        let h = History::new(10);
        h.push(2, DatabaseF::new("v2"), None);
        h.push(1, DatabaseF::new("v1"), empty_record());
    }

    /// The entry the capacity bound evicts comes back with its record, and
    /// a superseded head [`SUPERSEDED_DELAY`] pushes late: the caller
    /// frees both.
    #[test]
    fn push_hands_back_the_evicted_record() {
        let h = History::new(2);
        let (_, evicted) = h.push(0, DatabaseF::new("v0"), None);
        assert!(evicted.is_none());
        let mut late = Vec::new();
        for v in 1..=SUPERSEDED_DELAY as Version + 1 {
            let (head, evicted) = h.push(v, DatabaseF::new(format!("v{v}")), empty_record());
            late.extend(head.map(|db| db.name().to_string()));
            let evicted = evicted.map(|e| (e.version, e.record.is_some()));
            assert_eq!(evicted, (v >= 2).then(|| (v - 2, v > 2)), "push v{v}");
        }
        assert_eq!(late, vec!["v0"]);
        assert_eq!(h.versions(), vec![8, 9]);
    }

    #[test]
    fn compact_keeps_the_newest_window() {
        let store = store_with(10, 64);
        let h = store.history();
        assert_eq!(h.compact(3), 7);
        assert_eq!(h.versions(), vec![7, 8, 9]);
        assert_eq!(rows_at(h, 8), 8);
        let err = h.as_of(6).unwrap_err();
        assert!(matches!(
            err,
            FdmError::VersionEvicted {
                version: 6,
                oldest: Some(7),
                newest: Some(9)
            }
        ));
        assert_eq!(h.compact(3), 0, "already inside the window");
        assert_eq!(h.compact(0), 2, "keep_last_n is clamped to 1");
        assert_eq!(h.versions(), vec![9]);
    }

    #[test]
    fn compact_edge_cases_are_pinned() {
        // compact(0) clamps to keeping one version, never zero.
        let store = store_with(3, 16);
        let h = store.history();
        assert_eq!(h.compact(0), 2);
        assert_eq!(h.versions(), vec![2]);
        assert_eq!(h.compact(0), 0, "single entry survives repeated compact(0)");

        // keep_last_n > len is a no-op, not an error or over-retention.
        let store = store_with(2, 16);
        assert_eq!(store.history().compact(100), 0);
        assert_eq!(store.history().versions(), vec![0, 1]);

        // compacting an empty history is a no-op too.
        let h = History::new(16);
        assert_eq!(h.compact(0), 0);
        assert_eq!(h.compact(8), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn time_travel_with_a_store() {
        // the intended usage: commit, then diff versions
        let accounts = RelationF::new("accounts", &["id"])
            .insert(
                Value::Int(1),
                TupleF::builder("a").attr("balance", 100).build(),
            )
            .unwrap();
        let store = Store::new(DatabaseF::new("bank").with_relation(accounts));
        for i in 0..5 {
            let mut txn = store.begin();
            txn.update_attr("accounts", &Value::Int(1), "balance", 100 + i)
                .unwrap();
            txn.commit().unwrap();
        }

        // query the past
        let past = store.as_of(2).unwrap();
        assert_eq!(
            past.relation("accounts")
                .unwrap()
                .lookup(&Value::Int(1))
                .unwrap()
                .get("balance")
                .unwrap(),
            Value::Int(101)
        );
        // and diff two points in time with Fig. 9 machinery
        let diff = difference(&store.as_of(1).unwrap(), &store.as_of(5).unwrap()).unwrap();
        assert_eq!(diff.relation("accounts.added").unwrap().len(), 1);
        assert_eq!(diff.relation("accounts.removed").unwrap().len(), 1);
    }

    #[test]
    fn empty_history() {
        let h = History::new(4);
        assert!(h.is_empty());
        assert!(h.latest().is_none());
        assert!(h.as_of(0).is_err());
    }
}
