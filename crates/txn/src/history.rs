//! Time travel: queries against past versions.
//!
//! The whole database function is a persistent value, so the history
//! keeps **one root**, the newest, and per retained version the *undo*
//! of the commit that made it: the [`Op`]s that turn that version's root
//! back into its predecessor's. The path a commit superseded is therefore
//! freed a few commits later, while it is still in cache, not when its
//! version leaves the window; what the history keeps per version is an op
//! list and the tuples it restores, not a root pinning a path no other
//! version shares.
//!
//! [`History::as_of`] answers the head by a clone; an older version is
//! built once — from the nearest newer root it knows, applying undos
//! newest first — and kept in its entry until the entry is evicted, so
//! the caller who asks for time travel pays for it and a commit never
//! does. [`History::record`] keeps the root it is given, for use without
//! a store. It is an FDM extension the paper's model makes nearly
//! trivial ("tears down the boundary between data that is stored and
//! data that is computed" — here, between data that is *current* and
//! data that is *past*).

use crate::writeset::{apply_ops, Op};
use fdm_core::{DatabaseF, FdmError, Result};
use fdm_storage::Version;
use parking_lot::RwLock;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// A bounded history of committed database versions.
///
/// # Examples
///
/// ```
/// use fdm_core::DatabaseF;
/// use fdm_txn::History;
///
/// let h = History::new(8);
/// h.record(0, DatabaseF::new("v0"));
/// h.record(1, DatabaseF::new("v1"));
/// assert_eq!(h.as_of(0).unwrap().name(), "v0");
/// assert_eq!(h.latest().unwrap().0, 1);
/// ```
pub struct History {
    inner: RwLock<Versions>,
    capacity: usize,
}

/// How many pushes late [`History::push`] hands back a head an undo
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
struct Versions {
    /// The newest version's root.
    head: Option<DatabaseF>,
    /// Versions ascending; the last one's root is `head`.
    entries: VecDeque<Entry>,
    /// The last [`SUPERSEDED_DELAY`] heads an undo superseded, oldest
    /// first.
    superseded: VecDeque<DatabaseF>,
}

/// One retained version.
pub(crate) struct Entry {
    version: Version,
    /// Turns this version's root into the previous entry's. `None` for a
    /// recorded entry, whose predecessor keeps its root instead, and for
    /// the version a store starts at.
    undo: Option<Arc<[Op]>>,
    /// This version's root, once known: recorded with it, superseded by
    /// a [`History::record`], or built by an [`History::as_of`].
    root: OnceLock<DatabaseF>,
}

impl History {
    /// Creates a history retaining up to `capacity` versions.
    pub fn new(capacity: usize) -> History {
        History {
            inner: RwLock::new(Versions::default()),
            capacity: capacity.max(1),
        }
    }

    /// Records a committed version with its root (drops the oldest beyond
    /// capacity).
    ///
    /// Versions arrive in commit order, so this is a `push_back`.
    ///
    /// # Panics
    ///
    /// If `version` is not newer than everything recorded: history is
    /// append-only.
    pub fn record(&self, version: Version, db: DatabaseF) {
        drop(self.push(version, db, None));
    }

    /// Makes `db` the head at `version`. With an `undo` — the ops turning
    /// `db` back into the current head — the superseded head is handed
    /// back [`SUPERSEDED_DELAY`] pushes later; without one its entry keeps
    /// it, as [`History::record`] does. The entry the capacity bound
    /// evicts is handed back beside it: the commit path frees both only
    /// after it has left the sequencer.
    pub(crate) fn push(
        &self,
        version: Version,
        db: DatabaseF,
        undo: Option<Vec<Op>>,
    ) -> (Option<DatabaseF>, Option<Entry>) {
        let undo = undo.map(Arc::from);
        let mut g = self.inner.write();
        let newest = g.entries.back().map(|e| e.version);
        assert!(
            newest.is_none_or(|newest| newest < version),
            "history is append-only: v{version} recorded after v{newest:?}"
        );
        let head = match (g.head.replace(db), &undo) {
            (Some(root), Some(_)) => {
                g.superseded.push_back(root);
                if g.superseded.len() > SUPERSEDED_DELAY {
                    g.superseded.pop_front()
                } else {
                    None
                }
            }
            (Some(root), None) => match g.entries.back() {
                Some(last) => last.root.set(root).err(),
                None => Some(root),
            },
            (None, _) => None,
        };
        let evicted = if g.entries.len() == self.capacity {
            g.entries.pop_front()
        } else {
            None
        };
        g.entries.push_back(Entry {
            version,
            undo,
            root: OnceLock::new(),
        });
        (head, evicted)
    }

    /// The snapshot that was current *at* `version`: the newest recorded
    /// version ≤ `version`. Errors with [`FdmError::VersionEvicted`] if
    /// that version is older than everything retained.
    ///
    /// The head and a version whose root is known answer by a clone.
    /// Otherwise the read lock is held only to clone the nearest newer
    /// known root (or the head) and the undos in between; they are
    /// applied after it, newest first, and the result is kept in the
    /// version's entry until it is evicted.
    pub fn as_of(&self, version: Version) -> Result<DatabaseF> {
        let (at, start, undos) = {
            let g = self.inner.read();
            let found = g.entries.partition_point(|e| e.version <= version);
            let Some(i) = found.checked_sub(1) else {
                return Err(FdmError::VersionEvicted {
                    version,
                    oldest: g.entries.front().map(|e| e.version),
                    newest: g.entries.back().map(|e| e.version),
                });
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
            let mut undos = Vec::new();
            for newer in g.entries.range(i + 1..) {
                let undo = newer
                    .undo
                    .as_ref()
                    .expect("a root-less entry's successor has an undo");
                undos.push(Arc::clone(undo));
                if let Some(db) = newer.root.get() {
                    start = Some(db.clone());
                    break;
                }
            }
            let start = start
                .or_else(|| g.head.clone())
                .expect("the newest entry's root");
            (entry.version, start, undos)
        };
        let mut db = start;
        for undo in undos.iter().rev() {
            db = apply_ops(&db, undo)?;
        }
        let kept = {
            let g = self.inner.read();
            let entry = g.entries.binary_search_by_key(&at, |e| e.version);
            entry.map(|i| g.entries[i].root.get_or_init(|| db.clone()).clone())
        };
        Ok(kept.unwrap_or(db))
    }

    /// Drops everything but the newest `keep_last_n` versions (min 1),
    /// bounding the log explicitly; returns how many entries were
    /// evicted. Reads inside the kept window are unaffected; reads below
    /// it error with [`FdmError::VersionEvicted`]. What is evicted is
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Store;
    use fdm_core::{RelationF, TupleF, Value};
    use fdm_fql::difference;
    use std::sync::Arc;

    #[test]
    fn as_of_finds_enclosing_version() {
        let h = History::new(10);
        h.record(0, DatabaseF::new("v0"));
        h.record(3, DatabaseF::new("v3"));
        h.record(7, DatabaseF::new("v7"));
        assert_eq!(h.as_of(0).unwrap().name(), "v0");
        assert_eq!(h.as_of(2).unwrap().name(), "v0");
        assert_eq!(h.as_of(3).unwrap().name(), "v3");
        assert_eq!(h.as_of(100).unwrap().name(), "v7");
        assert_eq!(h.versions(), vec![0, 3, 7]);
    }

    #[test]
    fn eviction_is_bounded_and_reported() {
        let h = History::new(2);
        h.record(0, DatabaseF::new("v0"));
        h.record(1, DatabaseF::new("v1"));
        h.record(2, DatabaseF::new("v2"));
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
        assert_eq!(h.as_of(1).unwrap().name(), "v1");
        assert_eq!(h.oldest(), Some(1));
    }

    /// Replaces `out_of_order_records_are_insert_sorted`: the commit
    /// sequencer records versions in order, so the history no longer
    /// sorts — recording an older (or the same) version is a bug.
    #[test]
    #[should_panic(expected = "append-only")]
    fn recording_an_older_version_panics() {
        let h = History::new(10);
        h.record(2, DatabaseF::new("v2"));
        h.record(1, DatabaseF::new("v1"));
    }

    #[test]
    fn push_hands_back_the_evicted_root() {
        let h = History::new(2);
        assert!(h.push(0, DatabaseF::new("v0"), None).1.is_none());
        assert!(h.push(1, DatabaseF::new("v1"), None).1.is_none());
        let entry = h
            .push(2, DatabaseF::new("v2"), None)
            .1
            .expect("over capacity");
        let db = entry.root.get().expect("a recorded entry keeps its root");
        assert_eq!((entry.version, db.name()), (0, "v0"));
        assert_eq!(h.versions(), vec![1, 2]);
    }

    #[test]
    fn compact_keeps_the_newest_window() {
        let h = History::new(64);
        for v in 0..10 {
            h.record(v, DatabaseF::new(format!("v{v}")));
        }
        assert_eq!(h.compact(3), 7);
        assert_eq!(h.versions(), vec![7, 8, 9]);
        assert_eq!(h.as_of(8).unwrap().name(), "v8");
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
        let h = History::new(16);
        h.record(0, DatabaseF::new("v0"));
        h.record(1, DatabaseF::new("v1"));
        h.record(2, DatabaseF::new("v2"));
        assert_eq!(h.compact(0), 2);
        assert_eq!(h.versions(), vec![2]);
        assert_eq!(h.compact(0), 0, "single entry survives repeated compact(0)");

        // keep_last_n > len is a no-op, not an error or over-retention.
        let h = History::new(16);
        h.record(5, DatabaseF::new("v5"));
        h.record(6, DatabaseF::new("v6"));
        assert_eq!(h.compact(100), 0);
        assert_eq!(h.versions(), vec![5, 6]);

        // compacting an empty history is a no-op too.
        let h = History::new(16);
        assert_eq!(h.compact(0), 0);
        assert_eq!(h.compact(8), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn time_travel_with_a_store() {
        // the intended usage: record each commit, then diff versions
        let accounts = RelationF::new("accounts", &["id"])
            .insert(
                Value::Int(1),
                TupleF::builder("a").attr("balance", 100).build(),
            )
            .unwrap();
        let store = Store::new(DatabaseF::new("bank").with_relation(accounts));
        let history = Arc::new(History::new(16));
        history.record(store.version(), store.snapshot());

        for i in 0..5 {
            let mut txn = store.begin();
            txn.update_attr("accounts", &Value::Int(1), "balance", 100 + i)
                .unwrap();
            let v = txn.commit().unwrap();
            history.record(v, store.snapshot());
        }

        // query the past
        let past = history.as_of(2).unwrap();
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
        let diff = difference(&history.as_of(1).unwrap(), &history.as_of(5).unwrap()).unwrap();
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
