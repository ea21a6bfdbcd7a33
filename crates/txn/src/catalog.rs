//! The view catalog: maintained views subscribed to commits.
//!
//! [`Store::register_view`](crate::Store::register_view) compiles an FQL
//! plan into a [`MaintainedView`] (see `fdm-fql`'s `ivm` module) and
//! subscribes it to the store's commit stream. The catalog keeps no copy
//! of that stream: a view at watermark w reads the records of versions
//! w + 1, w + 2, … straight from the store's [`History`], whose ring is
//! gapless up to its head. The [`DbDelta`] of version v is read off its
//! record (`CommitRecord::delta`) once per drain and applied by every
//! view that needs it *under the version watermark the commit
//! installed*, so reading a view always answers "the view as of version
//! v" for a concrete, known v. A delta with an entry rewritten whole is
//! applied over the root of v (`History::as_of`); a row delta is never
//! read against a root, so none is built for it.
//!
//! A view whose next record has left the ring is rebuilt over the oldest
//! retained version and drains forward from there, counted as one
//! fallback recompute. So a view that is never refreshed pins nothing.
//!
//! Maintenance errors never fail the commit that triggered them: the
//! commit is already installed and durable by the time the catalog sees
//! it. A failing view is instead *poisoned* — its error is remembered
//! and surfaced on the next read — while other views keep advancing.

use crate::history::{CommitRecord, History};
use fdm_core::delta::DbDelta;
use fdm_core::{DatabaseF, FdmError, Result};
use fdm_fql::ivm::{IvmStats, MaintainedView};
use fdm_fql::plan::Query;
use fdm_storage::Version;
use parking_lot::Mutex;

/// When a registered view is brought forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshMode {
    /// Maintained inside every commit's bookkeeping: reads are always at
    /// the store head (default).
    Eager,
    /// Maintained only when
    /// [`Store::refresh_views_to`](crate::Store::refresh_views_to) is
    /// called: commits stay cheap, reads pick their version.
    Manual,
}

/// One subscribed view plus its maintenance cursor.
struct RegisteredView {
    view: MaintainedView,
    /// The newest version whose delta has been applied.
    watermark: Version,
    mode: RefreshMode,
    /// Set when maintenance failed; the view stops advancing and reads
    /// surface this until re-registered.
    error: Option<String>,
}

impl RegisteredView {
    /// `true` if a drain of `mode` views (all when `None`) up to `up_to`
    /// moves this view.
    fn behind(&self, mode: Option<RefreshMode>, up_to: Version) -> bool {
        self.error.is_none() && mode.is_none_or(|m| self.mode == m) && self.watermark < up_to
    }

    /// Applies the delta of version `v`, or poisons the view.
    fn apply(&mut self, v: Version, db: &DatabaseF, delta: &DbDelta) {
        match self.view.apply(db, delta) {
            Ok(_) => self.watermark = v,
            Err(e) => self.error = Some(format!("applying delta for v{v}: {e}")),
        }
    }
}

#[derive(Default)]
struct CatalogInner {
    /// Commit deltas built so far (a statistic).
    deltas_built: u64,
    views: Vec<RegisteredView>,
}

/// The set of maintained views subscribed to a [`Store`](crate::Store).
///
/// All state sits behind one mutex: view maintenance is serialized with
/// respect to itself, which is what makes "apply each commit's delta
/// exactly once, in version order" trivially correct. Commits on a store
/// with no eager view pay one uncontended lock and return.
#[derive(Default)]
pub struct ViewCatalog {
    inner: Mutex<CatalogInner>,
}

impl ViewCatalog {
    /// Brings the eager views forward to `version`, which the calling
    /// committer installed as `db`. Called from the store's commit
    /// bookkeeping *after* the root is installed. Never fails the commit:
    /// per-view errors poison that view only, and a `version` the ring has
    /// already evicted is left to the committer of a newer one.
    pub(crate) fn observe(&self, history: &History, version: Version, db: &DatabaseF) {
        let mut inner = self.inner.lock();
        let _ = inner.drain(history, Some(RefreshMode::Eager), version, (version, db));
    }

    /// Registers a view against the store's current snapshot, taken
    /// *while holding the catalog lock* so no commit can slip between
    /// the initial materialization and the subscription: a commit newer
    /// than the snapshot observes after the lock is released, and drains
    /// its own record. Returns the version the view starts at.
    pub(crate) fn register(
        &self,
        name: &str,
        query: Query,
        mode: RefreshMode,
        snapshot: impl FnOnce() -> (Version, DatabaseF),
    ) -> Result<Version> {
        let mut inner = self.inner.lock();
        let (v0, db0) = snapshot();
        if inner.views.iter().any(|rv| rv.view.name() == name) {
            return Err(FdmError::Expr(format!(
                "view '{name}' is already registered"
            )));
        }
        let view = MaintainedView::new(name, query, &db0)?;
        inner.views.push(RegisteredView {
            view,
            watermark: v0,
            mode,
            error: None,
        });
        Ok(v0)
    }

    /// Brings **every** view (eager and manual) forward through the
    /// history's records, up to at most `version`. Returns the minimum
    /// watermark across healthy views afterwards — the version every view
    /// is guaranteed to reflect — or, when a view would have to move to a
    /// `version` the ring no longer holds, [`FdmError::VersionEvicted`],
    /// with no view moved.
    pub(crate) fn refresh_to(&self, history: &History, version: Version) -> Result<Version> {
        let mut inner = self.inner.lock();
        if let Some((head_v, head)) = history.latest() {
            inner.drain(history, None, version, (head_v, &head))?;
        }
        let floor = inner
            .views
            .iter()
            .filter(|rv| rv.error.is_none())
            .map(|rv| rv.watermark)
            .min();
        match floor {
            Some(v) => Ok(v),
            None if inner.views.is_empty() => Err(FdmError::Expr(
                "refresh_views_to: no views are registered".into(),
            )),
            None => Err(FdmError::Expr(
                inner
                    .views
                    .iter()
                    .find_map(|rv| rv.error.clone())
                    .unwrap_or_else(|| "all registered views are poisoned".into()),
            )),
        }
    }

    /// The view's result relation and the version it reflects, or the
    /// poisoning error if maintenance failed.
    pub(crate) fn read(&self, name: &str) -> Result<(Version, fdm_core::RelationF)> {
        let inner = self.inner.lock();
        let rv = inner
            .views
            .iter()
            .find(|rv| rv.view.name() == name)
            .ok_or_else(|| FdmError::Expr(format!("no registered view named '{name}'")))?;
        if let Some(e) = &rv.error {
            return Err(FdmError::Expr(format!(
                "view '{name}' is poisoned by a maintenance error: {e}"
            )));
        }
        Ok((rv.watermark, rv.view.relation()))
    }

    /// Maintenance counters for a view, if it is registered.
    pub(crate) fn stats(&self, name: &str) -> Option<IvmStats> {
        let inner = self.inner.lock();
        inner
            .views
            .iter()
            .find(|rv| rv.view.name() == name)
            .map(|rv| rv.view.stats().clone())
    }
}

impl CatalogInner {
    /// Advances the views of `mode` (all when `None`) through the
    /// history's records up to `up_to`; `installed` is a version with its
    /// root at hand. Each record's delta is built once and applied by every
    /// view waiting for it. A view whose next record has left the ring is
    /// first rebuilt over the oldest retained version; if that is newer
    /// than `up_to`, nothing moves and the eviction is the answer.
    fn drain(
        &mut self,
        history: &History,
        mode: Option<RefreshMode>,
        up_to: Version,
        installed: (Version, &DatabaseF),
    ) -> Result<()> {
        'drain: loop {
            let behind = self.views.iter().filter(|rv| rv.behind(mode, up_to));
            let Some(from) = behind.map(|rv| rv.watermark).min() else {
                return Ok(());
            };
            let records = match history.records(from, up_to) {
                Ok(records) => records,
                Err(FdmError::VersionEvicted {
                    oldest: Some(oldest),
                    ..
                }) if oldest <= up_to => {
                    self.rebuild(history, mode, oldest);
                    continue;
                }
                Err(FdmError::VersionEvicted { oldest, newest, .. }) => {
                    return Err(FdmError::VersionEvicted {
                        version: up_to,
                        oldest,
                        newest,
                    })
                }
                Err(e) => return Err(e),
            };
            for (v, record) in records {
                let delta = record.delta();
                self.deltas_built += 1;
                let Some(db) = root_for(history, &record, v, installed) else {
                    continue 'drain; // evicted meanwhile: the next round rebuilds
                };
                for rv in &mut self.views {
                    if rv.behind(mode, up_to) && rv.watermark + 1 == v {
                        rv.apply(v, &db, &delta);
                    }
                }
            }
            return Ok(());
        }
    }

    /// Rebuilds every view of `mode` whose next record precedes `oldest`
    /// over the root of `oldest`, keeping its counters and counting one
    /// fallback recompute.
    fn rebuild(&mut self, history: &History, mode: Option<RefreshMode>, oldest: Version) {
        let Ok(db) = history.as_of(oldest) else {
            return; // evicted meanwhile: the next round sees the new window
        };
        for rv in &mut self.views {
            if rv.behind(mode, oldest) && rv.watermark + 1 < oldest {
                match rv.view.rebuild(&db) {
                    Ok(()) => rv.watermark = oldest,
                    Err(e) => rv.error = Some(format!("rebuilding at v{oldest}: {e}")),
                }
            }
        }
    }
}

/// The root a view reads the delta of version `v` against: the one at
/// hand when `v` is its version; else, when the record rewrote an entry
/// whole, `as_of(v)` — `None` if the ring has evicted it meanwhile. A row
/// delta is never read against a root, so it is handed the one at hand
/// and no root is built for it.
fn root_for(
    history: &History,
    record: &CommitRecord,
    v: Version,
    (at, db): (Version, &DatabaseF),
) -> Option<DatabaseF> {
    if v == at || !record.rewrites_whole() {
        return Some(db.clone());
    }
    history.as_of(v).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use fdm_core::delta::EntryDelta;
    use fdm_core::{apply_ops, Name, Op, TupleF, Value};
    use fdm_fql::prelude::Params;
    use fdm_fql::testutil::retail_db;
    use fdm_fql::DynamicView;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    fn olds_query() -> Query {
        Query::scan("customers").filter("age > $min", Params::new().set("min", 42))
    }

    fn customer(cid: i64, name: &str, age: i64) -> Arc<TupleF> {
        Arc::new(
            TupleF::builder(format!("c{cid}"))
                .attr("name", name)
                .attr("age", age)
                .build(),
        )
    }

    fn upsert_op(cid: i64, name: &str, age: i64) -> Op {
        Op::Upsert {
            rel: Name::from("customers"),
            key: Value::Int(cid),
            tuple: customer(cid, name, age),
        }
    }

    /// A relation as `(key, data)` pairs in key order.
    fn keyed(rel: &fdm_core::RelationF) -> Vec<(Value, Value)> {
        let rows = rel.tuples().unwrap().into_iter();
        rows.map(|(k, t)| (k, t.data_key().unwrap())).collect()
    }

    /// A delta by entry name: its row transitions as `(key, old data, new
    /// data)`, or `None` for a wholesale rebind.
    type DeltaRows = BTreeMap<Name, Option<Vec<(Value, Option<Value>, Option<Value>)>>>;

    fn delta_rows(delta: &DbDelta) -> DeltaRows {
        let data = |t: &Option<Arc<TupleF>>| t.as_ref().map(|t| t.data_key().unwrap());
        let entries = delta.entries.iter().map(|(name, entry)| {
            let rows = match entry {
                EntryDelta::Replaced => None,
                EntryDelta::Rows(changes) => Some(
                    changes
                        .iter()
                        .map(|c| (c.key.clone(), data(&c.old), data(&c.new)))
                        .collect(),
                ),
            };
            (name.clone(), rows)
        });
        entries.collect()
    }

    /// One drawn write: `(kind, relation, key, age)`.
    type Step = (usize, usize, i64, i64);

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        prop::collection::vec((0usize..8, 0usize..2, 1i64..7, 40i64..46), 1..10)
    }

    /// The ops one drawn step records against `current` (the database as
    /// the transaction sees it so far; `base` is its snapshot): a delete,
    /// an upsert of equal data under a fresh allocation, an `Assign` (or a
    /// `Drop` + `Assign`) of the whole entry, a write back to the data the
    /// snapshot held, or an upsert of new data.
    fn step_ops(base: &DatabaseF, current: &DatabaseF, (kind, rel, key, age): Step) -> Vec<Op> {
        let rel = Name::from(["customers", "products"][rel]);
        let key = Value::Int(key);
        let now = current.relation(&rel).unwrap().lookup(&key);
        let tuple = customer(0, "Pat", age);
        match (kind, now) {
            (0, Some(_)) => vec![Op::Delete { rel, key }],
            // equal data under a fresh allocation: not a change
            (1, Some(t)) => vec![Op::Upsert {
                rel,
                key,
                tuple: Arc::new((*t).clone()),
            }],
            (2 | 3, _) => {
                let value = current
                    .relation(&rel)
                    .unwrap()
                    .upsert_arc(key, tuple)
                    .unwrap();
                let assign = Op::Assign {
                    name: rel.clone(),
                    value: value.into(),
                };
                match kind {
                    2 => vec![assign],
                    _ => vec![Op::Drop { name: rel }, assign],
                }
            }
            // back to what the snapshot held: no change if nothing else moved
            (4, now) => match (base.relation(&rel).unwrap().lookup(&key), now) {
                (Some(t), _) => vec![Op::Upsert {
                    rel,
                    key,
                    tuple: Arc::new((*t).clone()),
                }],
                (None, Some(_)) => vec![Op::Delete { rel, key }],
                (None, None) => Vec::new(),
            },
            _ => vec![Op::Upsert { rel, key, tuple }],
        }
    }

    /// Stages `steps` on `txn` through the transaction API; returns the
    /// entries it rebound.
    fn stage(txn: &mut crate::Transaction, steps: &[Step]) -> BTreeSet<Name> {
        let base = txn.db().clone();
        let mut rebound = BTreeSet::new();
        for &step in steps {
            for op in step_ops(&base, txn.db(), step) {
                match op {
                    Op::Upsert { rel, key, tuple } => txn.upsert(&rel, key, (*tuple).clone()),
                    Op::Delete { rel, key } => txn.delete(&rel, &key),
                    Op::Assign { name, value } => {
                        rebound.insert(name.clone());
                        txn.assign(&name, value)
                    }
                    Op::Drop { name } => txn.drop_entry(&name),
                }
                .unwrap();
            }
        }
        rebound
    }

    /// `ours` ≡ `DbDelta::between(before, after)` by key and data, except
    /// that an entry in `rebound` may be reported coarser — `Replaced` —
    /// and nothing else may differ; and a view fed `ours` lands on the
    /// recompute.
    fn matches_between(
        ours: &DbDelta,
        before: &DatabaseF,
        after: &DatabaseF,
        rebound: &BTreeSet<Name>,
    ) {
        let ours_rows = delta_rows(ours);
        let mut theirs = delta_rows(&DbDelta::between(before, after).unwrap());
        for (name, rows) in &ours_rows {
            match rows {
                None => {
                    prop_assert!(rebound.contains(name), "{name} was not rebound");
                    theirs.remove(name);
                }
                Some(rows) => prop_assert!(!rows.is_empty(), "{name}: an empty entry"),
            }
        }
        let ours_rows: DeltaRows = ours_rows
            .into_iter()
            .filter(|(_, rows)| rows.is_some())
            .collect();
        prop_assert_eq!(ours_rows, theirs);

        let mut view = MaintainedView::new("olds", olds_query(), before).unwrap();
        view.apply(after, ours).unwrap();
        prop_assert_eq!(
            keyed(&view.relation()),
            keyed(&olds_query().eval(after).unwrap())
        );
    }

    proptest! {
        /// The once-per-commit delta ≡ `DbDelta::between` of the roots on
        /// either side, by key and data, for random transactions over two
        /// relations: a key written twice, an upsert then a delete, an
        /// upsert of equal data, a write back to the snapshot's data, point
        /// writes beside an `Assign` (or a `Drop` + `Assign`) of the same
        /// entry. A rebound entry is reported coarser — `Replaced` — and
        /// nothing else may differ. A view fed the delta lands on the
        /// recompute.
        ///
        /// The record's delta is checked on its own, and then on the
        /// store's three paths to a record: a working copy that installs as
        /// it is (what its own writes replaced), one that replays because a
        /// commit landed between its snapshot and its install, and a
        /// `commit_batch` group (what the replay replaced).
        #[test]
        fn commit_delta_equals_between(steps in steps()) {
            let before = retail_db();
            let mut after = before.clone();
            let mut ops: Vec<Op> = Vec::new();
            let mut replaced: Vec<Option<Arc<TupleF>>> = Vec::new();
            let mut rebound: BTreeSet<Name> = BTreeSet::new();
            for &step in &steps {
                for op in step_ops(&before, &after, step) {
                    replaced.push(match &op {
                        Op::Upsert { rel, key, .. } | Op::Delete { rel, key } => {
                            after.relation(rel).unwrap().lookup(key)
                        }
                        Op::Assign { name, .. } | Op::Drop { name } => {
                            rebound.insert(name.clone());
                            None
                        }
                    });
                    after = apply_ops(&after, std::slice::from_ref(&op), |_| {}).unwrap();
                    ops.push(op);
                }
            }
            let record = CommitRecord::new(&before, &after, ops, replaced);
            matches_between(&record.delta(), &before, &after, &rebound);

            // a ledger no drawn step touches, for the writer that lands
            // beside or between
            let shop = retail_db().with_relation(fdm_core::RelationF::new("ledger", &["id"]));
            let ledger = |t: &mut crate::Transaction| {
                t.upsert("ledger", Value::Int(1), (*customer(1, "L", 1)).clone()).unwrap()
            };
            for path in ["as it is", "replayed", "batched"] {
                let store = Store::new(shop.clone());
                // a manual view that never moves: the record is all there is
                store.register_view_with("late", olds_query(), RefreshMode::Manual).unwrap();
                let mut txn = store.begin();
                let rebound = stage(&mut txn, &steps);
                match path {
                    "as it is" => drop(txn.commit().unwrap()),
                    "replayed" => {
                        store.run(|t| { ledger(t); Ok(()) }).unwrap();
                        txn.commit().unwrap();
                    }
                    _ => {
                        let mut other = store.begin();
                        ledger(&mut other);
                        let policy = crate::BatchPolicy::default();
                        for outcome in store.commit_batch(vec![txn, other], &policy) {
                            outcome.unwrap();
                        }
                    }
                }
                let head = store.version();
                let record = store.history().records(head.saturating_sub(1), head).unwrap().pop();
                let ours = record.map(|(_, record)| record.delta());
                match ours {
                    Some(ours) => {
                        let before = store.as_of(head - 1).unwrap();
                        matches_between(&ours, &before, &store.as_of(head).unwrap(), &rebound)
                    }
                    // a transaction that wrote nothing installs nothing
                    None => prop_assert!(path == "as it is" && head == 0, "{path}: no delta"),
                }
            }
        }
    }

    /// View maintenance is a post-install step: a committer held at the
    /// catalog's lock has installed, logged and released the sequencer.
    #[test]
    fn view_maintenance_runs_outside_the_commit_sequencer() {
        let store = Store::new(retail_db());
        store.register_view("olds", olds_query()).unwrap();
        let catalog = store.views.inner.lock();
        std::thread::scope(|s| {
            let store = &store;
            s.spawn(move || {
                let mut t = store.begin();
                t.upsert(
                    "customers",
                    Value::Int(9),
                    (*customer(9, "Zoe", 70)).clone(),
                )
                .unwrap();
                t.commit().unwrap()
            });
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while store.version() == 0 || store.sequencer.try_lock().is_none() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "the commit installs and releases the sequencer"
                );
                std::thread::yield_now();
            }
            assert_eq!(store.log_versions(), vec![1]);
            assert_eq!(store.history().versions(), vec![0, 1]);
            drop(catalog);
        });
        assert_eq!(store.view("olds").unwrap().0, 1);
    }

    #[test]
    fn eager_view_follows_store_commits() {
        let store = Store::new(retail_db());
        let v0 = store.register_view("olds", olds_query()).unwrap();
        assert_eq!(v0, 0);
        let (v, rel) = store.view("olds").unwrap();
        assert_eq!((v, rel.len()), (0, 2));

        let mut t = store.begin();
        t.upsert(
            "customers",
            Value::Int(9),
            TupleF::builder("c9")
                .attr("name", "Zoe")
                .attr("age", 70)
                .build(),
        )
        .unwrap();
        let v1 = t.commit().unwrap();

        let (v, rel) = store.view("olds").unwrap();
        assert_eq!(v, v1, "eager views read at the commit head");
        assert_eq!(rel.len(), 3);
        // the maintained result matches a from-scratch dynamic eval
        let fresh = DynamicView::new("olds", olds_query())
            .eval(&store.snapshot())
            .unwrap();
        assert_eq!(keyed(&rel), keyed(&fresh));
        assert!(store.view_stats("olds").unwrap().deltas_applied >= 1);
    }

    /// Replaces `out_of_order_commits_buffer_behind_the_gap`: commits
    /// reach the catalog out of version order, but the ring holds every
    /// record up to its head, so the later committer drains both, in
    /// order, and the straggler finds nothing left to do.
    #[test]
    fn out_of_order_commits_drain_from_the_ring() {
        let db0 = retail_db();
        let history = History::new(8);
        history.push(0, db0.clone(), None);
        let catalog = ViewCatalog::default();
        catalog
            .register("olds", olds_query(), RefreshMode::Eager, || {
                (0, db0.clone())
            })
            .unwrap();
        let mut db = db0;
        for (v, op) in [(1, upsert_op(9, "Zoe", 70)), (2, upsert_op(10, "Yan", 61))] {
            let mut replaced = Vec::new();
            let after =
                apply_ops(&db, std::slice::from_ref(&op), |old| replaced.push(old)).unwrap();
            let record = CommitRecord::new(&db, &after, vec![op], replaced);
            history.push(v, after.clone(), Some(Arc::new(record)));
            db = after;
        }

        catalog.observe(&history, 2, &db);
        let (v, rel) = catalog.read("olds").unwrap();
        assert_eq!(v, 2);
        assert_eq!(keyed(&rel), keyed(&olds_query().eval(&db).unwrap()));
        catalog.observe(&history, 1, &history.as_of(1).unwrap());
        assert_eq!(catalog.read("olds").unwrap().0, 2);
        assert_eq!(catalog.inner.lock().deltas_built, 2, "one delta per record");
    }

    /// The delta of a version is built once per commit — not once per
    /// view — and not at all while nobody is subscribed. Counted, so it
    /// cannot flake.
    #[test]
    fn a_commit_delta_is_built_once_and_only_for_subscribers() {
        let store = Store::new(retail_db());
        let commit = |cid: i64| {
            let mut t = store.begin();
            t.upsert(
                "customers",
                Value::Int(cid),
                (*customer(cid, "New", 50 + cid)).clone(),
            )
            .unwrap();
            t.commit().unwrap()
        };
        let built = || store.views.inner.lock().deltas_built;
        commit(9);
        commit(10);
        assert_eq!(built(), 0, "no view, no delta");

        store.register_view("olds", olds_query()).unwrap();
        store
            .register_view("names", Query::scan("customers").project(&["name"]))
            .unwrap();
        store
            .register_view_with("late", olds_query(), RefreshMode::Manual)
            .unwrap();
        let head = commit(11).max(commit(12)).max(commit(13));
        assert_eq!(built(), 3, "three commits, three views, three deltas");
        // the manual view has not consumed them: a refresh reads the
        // deltas it missed off the records, once each
        assert_eq!(store.refresh_views_to(head).unwrap(), head);
        assert_eq!(built(), 6, "a refresh builds each missed delta once");
        for name in ["olds", "late"] {
            let (v, rel) = store.view(name).unwrap();
            assert_eq!(v, head);
            assert_eq!(
                keyed(&rel),
                keyed(&olds_query().eval(&store.snapshot()).unwrap())
            );
        }
    }

    #[test]
    fn manual_views_advance_only_on_refresh() {
        let store = Store::new(retail_db());
        store
            .register_view_with("olds", olds_query(), RefreshMode::Manual)
            .unwrap();
        let mut t = store.begin();
        t.upsert(
            "customers",
            Value::Int(9),
            TupleF::builder("c9")
                .attr("name", "Zoe")
                .attr("age", 70)
                .build(),
        )
        .unwrap();
        let v1 = t.commit().unwrap();

        let (v, rel) = store.view("olds").unwrap();
        assert_eq!((v, rel.len()), (0, 2), "manual: stale until refreshed");

        let reached = store.refresh_views_to(v1).unwrap();
        assert_eq!(reached, v1);
        let (v, rel) = store.view("olds").unwrap();
        assert_eq!((v, rel.len()), (v1, 3));
    }

    #[test]
    fn maintenance_errors_poison_only_the_failing_view() {
        let store = Store::new(retail_db());
        store.register_view("olds", olds_query()).unwrap();
        store
            .register_view("names", Query::scan("customers").project(&["name"]))
            .unwrap();

        // a customer with no `age` makes the filter predicate fail
        let mut t = store.begin();
        t.upsert(
            "customers",
            Value::Int(9),
            TupleF::builder("c9").attr("name", "Ghost").build(),
        )
        .unwrap();
        let v1 = t.commit().unwrap();

        let err = store.view("olds").unwrap_err().to_string();
        assert!(err.contains("poisoned"), "got: {err}");
        // the healthy view advanced past the same commit
        let (v, rel) = store.view("names").unwrap();
        assert_eq!((v, rel.len()), (v1, 4));
        // refresh reports the poisoning only once no healthy view remains
        assert_eq!(store.refresh_views_to(v1).unwrap(), v1);
    }

    #[test]
    fn register_rejects_duplicates_and_read_rejects_unknown() {
        let store = Store::new(retail_db());
        store.register_view("olds", olds_query()).unwrap();
        assert!(store.register_view("olds", olds_query()).is_err());
        assert!(store.view("nope").is_err());
        assert!(store.view_stats("nope").is_none());
        assert!(store.refresh_views_to(0).is_ok());
    }

    #[test]
    fn whole_entry_rebinds_take_the_replaced_path() {
        let store = Store::new(retail_db());
        store.register_view("olds", olds_query()).unwrap();
        // rebind `customers` wholesale: one extra senior, one junior
        let rebound = apply_ops(
            &store.snapshot(),
            &[upsert_op(9, "Zoe", 70), upsert_op(10, "Kid", 12)],
            |_| {},
        )
        .unwrap()
        .relation("customers")
        .unwrap();
        let mut t = store.begin();
        t.assign("customers", fdm_core::FnValue::Relation(rebound))
            .unwrap();
        let v1 = t.commit().unwrap();
        let (v, rel) = store.view("olds").unwrap();
        assert_eq!((v, rel.len()), (v1, 3));
        assert!(
            store.view_stats("olds").unwrap().fallback_recomputes >= 1,
            "an Assign must go through the scoped-recompute fallback"
        );
    }
}
