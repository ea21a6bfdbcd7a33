//! Time travel: queries against past versions.
//!
//! Because the whole database function is a persistent value, *keeping
//! history is free apart from the root pointers*: retaining version v's
//! root shares all unchanged structure with version v+1. This module adds
//! a bounded version history to [`crate::Store`]-like usage — an FDM
//! extension the paper's model makes nearly trivial ("tears down the
//! boundary between data that is stored and data that is computed" —
//! here, between data that is *current* and data that is *past*).

use fdm_core::{DatabaseF, FdmError, Result};
use fdm_storage::Version;
use parking_lot::RwLock;
use std::collections::VecDeque;

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
    inner: RwLock<VecDeque<(Version, DatabaseF)>>,
    capacity: usize,
}

impl History {
    /// Creates a history retaining up to `capacity` versions.
    pub fn new(capacity: usize) -> History {
        History {
            inner: RwLock::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Records a committed version (drops the oldest beyond capacity).
    ///
    /// Versions arrive in commit order — the store records from inside
    /// its commit sequencer — so this is a `push_back`.
    ///
    /// # Panics
    ///
    /// If `version` is not newer than everything recorded: history is
    /// append-only.
    pub fn record(&self, version: Version, db: DatabaseF) {
        drop(self.push(version, db));
    }

    /// [`History::record`], handing the entry the capacity bound evicted
    /// back to the caller: the commit path frees that root's unshared
    /// nodes only after it has left the sequencer.
    pub(crate) fn push(&self, version: Version, db: DatabaseF) -> Option<(Version, DatabaseF)> {
        let mut g = self.inner.write();
        assert!(
            g.back().is_none_or(|(newest, _)| *newest < version),
            "history is append-only: v{version} recorded after v{:?}",
            g.back().map(|(v, _)| *v)
        );
        g.push_back((version, db));
        if g.len() > self.capacity {
            g.pop_front()
        } else {
            None
        }
    }

    /// The snapshot that was current *at* `version`: the newest recorded
    /// version ≤ `version`. Errors with [`FdmError::VersionEvicted`] if
    /// that version is older than everything retained.
    pub fn as_of(&self, version: Version) -> Result<DatabaseF> {
        let g = self.inner.read();
        g.iter()
            .rev()
            .find(|(v, _)| *v <= version)
            .map(|(_, db)| db.clone())
            .ok_or_else(|| FdmError::VersionEvicted {
                version,
                oldest: g.front().map(|(v, _)| *v),
                newest: g.back().map(|(v, _)| *v),
            })
    }

    /// Drops everything but the newest `keep_last_n` versions (min 1),
    /// bounding the log explicitly; returns how many entries were
    /// evicted. Reads inside the kept window are unaffected; reads below
    /// it error with [`FdmError::VersionEvicted`].
    pub fn compact(&self, keep_last_n: usize) -> usize {
        let mut g = self.inner.write();
        let keep = keep_last_n.max(1);
        if g.len() <= keep {
            return 0;
        }
        let evicted = g.len() - keep;
        g.drain(..evicted);
        evicted
    }

    /// The oldest retained version, if any.
    pub fn oldest(&self) -> Option<Version> {
        self.inner.read().front().map(|(v, _)| *v)
    }

    /// The newest recorded version, if any.
    pub fn latest(&self) -> Option<(Version, DatabaseF)> {
        self.inner.read().back().cloned()
    }

    /// Number of retained versions.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// `true` if no versions are recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// All retained `(version, db)` pairs, oldest first.
    pub fn versions(&self) -> Vec<Version> {
        self.inner.read().iter().map(|(v, _)| *v).collect()
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
        assert!(h.push(0, DatabaseF::new("v0")).is_none());
        assert!(h.push(1, DatabaseF::new("v1")).is_none());
        let (v, db) = h.push(2, DatabaseF::new("v2")).expect("over capacity");
        assert_eq!((v, db.name()), (0, "v0"));
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
