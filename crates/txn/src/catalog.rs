//! The view catalog: maintained views subscribed to commits.
//!
//! [`Store::register_view`](crate::Store::register_view) compiles an FQL
//! plan into a [`MaintainedView`] (see `fdm-fql`'s `ivm` module) and
//! subscribes it to the store's commit stream. The [`DbDelta`] of version
//! v is a property of the commit, not of a view: `ViewCatalog::observe`
//! computes it once — from the commit's own writes when its working copy
//! installed as it is (each staged write remembered the tuple it
//! replaced), else by looking the written keys up in the roots on either
//! side of the install — and every view applies that same delta *under
//! the version watermark the commit installed*, so reading a view always
//! answers "the view as of version v" for a concrete, known v.
//!
//! Commits can reach the catalog out of version order (they install in
//! order under the commit sequencer, but reach the catalog after it is
//! released), so the catalog buffers `(version, delta, root)` entries
//! and advances each view only through a *contiguous* version prefix — a
//! view's watermark never jumps a gap that a straggling committer might
//! still fill.
//!
//! Maintenance errors never fail the commit that triggered them: the
//! commit is already installed and durable by the time the catalog sees
//! it. A failing view is instead *poisoned* — its error is remembered
//! and surfaced on the next read — while other views keep advancing.

use crate::writeset::Op;
use fdm_core::delta::{DbDelta, EntryDelta, TupleChange};
use fdm_core::{DatabaseF, FdmError, Name, Result, TupleF, Value};
use fdm_fql::ivm::{IvmStats, MaintainedView};
use fdm_fql::plan::Query;
use fdm_storage::Version;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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

#[derive(Default)]
struct CatalogInner {
    /// Commits not yet consumed by every view, keyed by version:
    /// `(the commit's delta, the root it installed)`.
    pending: BTreeMap<Version, (DbDelta, DatabaseF)>,
    /// Commit deltas built so far (a statistic).
    deltas_built: u64,
    views: Vec<RegisteredView>,
}

/// The set of maintained views subscribed to a [`Store`](crate::Store).
///
/// All state sits behind one mutex: view maintenance is serialized with
/// respect to itself, which is what makes "apply each commit's delta
/// exactly once, in version order" trivially correct. Commits on a store
/// with no registered views pay one uncontended lock and return.
#[derive(Default)]
pub struct ViewCatalog {
    inner: Mutex<CatalogInner>,
}

impl ViewCatalog {
    /// Feeds one installed commit — `before` is the root it replaced,
    /// `after` the one it installed, `replaced` (when the commit vouches
    /// for them) the tuple each of its `ops` replaced — to the catalog.
    /// Called from the store's commit bookkeeping *after* the root is
    /// installed and the commit is in the time-travel history. Never fails
    /// the commit: per-view errors poison that view only. The delta is
    /// built outside the lock, and not at all while no view is registered:
    /// one registered after that check snapshots at or past `version` and
    /// never needs it.
    pub(crate) fn observe(
        &self,
        version: Version,
        ops: &[Op],
        replaced: Option<&[Option<Arc<TupleF>>]>,
        before: &DatabaseF,
        after: &DatabaseF,
    ) {
        if self.inner.lock().views.is_empty() {
            return;
        }
        let delta = match replaced {
            Some(replaced) => delta_from_writes(ops, replaced),
            None => delta_from_ops(before, after, ops),
        };
        let mut inner = self.inner.lock();
        inner.deltas_built += 1;
        inner.pending.insert(version, (delta, after.clone()));
        inner.drain(Some(RefreshMode::Eager), Version::MAX);
        inner.prune();
    }

    /// Registers a view against the store's current snapshot, taken
    /// *while holding the catalog lock* so no commit can slip between
    /// the initial materialization and the subscription. Returns the
    /// version the view starts at.
    pub(crate) fn register(
        &self,
        name: &str,
        query: Query,
        mode: RefreshMode,
        snapshot: impl FnOnce() -> (Version, DatabaseF),
    ) -> Result<Version> {
        let mut inner = self.inner.lock();
        // Any commit whose observe() completed before we took the lock
        // has version <= v0 (install precedes observe); later commits
        // will be drained from `pending` by watermark order.
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
        if mode == RefreshMode::Eager {
            inner.drain(Some(RefreshMode::Eager), Version::MAX);
        }
        inner.prune();
        Ok(v0)
    }

    /// Brings **every** view (eager and manual) forward through the
    /// contiguous pending prefix, up to at most `version`. Returns the
    /// minimum watermark across healthy views afterwards — the version
    /// every view is guaranteed to reflect.
    pub(crate) fn refresh_to(&self, version: Version) -> Result<Version> {
        let mut inner = self.inner.lock();
        inner.drain(None, version);
        inner.prune();
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
    /// Advances views (those matching `mode`, or all when `None`)
    /// through the contiguous prefix of `pending`, stopping at `up_to`.
    fn drain(&mut self, mode: Option<RefreshMode>, up_to: Version) {
        for rv in &mut self.views {
            if rv.error.is_some() || mode.is_some_and(|m| rv.mode != m) {
                continue;
            }
            loop {
                let next = rv.watermark + 1;
                if next > up_to {
                    break;
                }
                let Some((delta, db)) = self.pending.get(&next) else {
                    break; // gap: a straggling committer may still fill it
                };
                match rv.view.apply(db, delta) {
                    Ok(_) => rv.watermark = next,
                    Err(e) => {
                        rv.error = Some(format!("applying delta for v{next}: {e}"));
                        break;
                    }
                }
            }
        }
    }

    /// Drops pending commits every healthy view has consumed. Poisoned
    /// views never hold entries back — they will not advance again.
    fn prune(&mut self) {
        if self.views.is_empty() {
            self.pending.clear();
            return;
        }
        let floor = self
            .views
            .iter()
            .filter(|rv| rv.error.is_none())
            .map(|rv| rv.watermark)
            .min()
            .unwrap_or(Version::MAX);
        self.pending.retain(|v, _| *v > floor);
    }
}

/// Translates a commit's recorded ops into the [`DbDelta`] the IVM layer
/// consumes, using the committed roots on either side of the commit to
/// resolve each touched key's old/new tuple. Point writes become
/// [`EntryDelta::Rows`]; whole-entry rebinds ([`Op::Assign`] /
/// [`Op::Drop`]) become [`EntryDelta::Replaced`], which the view layer
/// handles with a scoped recompute.
fn delta_from_ops(base: &DatabaseF, after: &DatabaseF, ops: &[Op]) -> DbDelta {
    let mut touched: BTreeMap<Name, BTreeSet<Value>> = BTreeMap::new();
    let mut replaced: BTreeSet<Name> = BTreeSet::new();
    for op in ops {
        match op {
            Op::Upsert { rel, key, .. } | Op::Delete { rel, key } => {
                touched.entry(rel.clone()).or_default().insert(key.clone());
            }
            Op::Assign { name, .. } | Op::Drop { name } => {
                replaced.insert(name.clone());
            }
        }
    }
    let mut entries: Vec<(Name, EntryDelta)> = Vec::new();
    for (rel, keys) in touched {
        if replaced.contains(&rel) {
            continue; // the rebind supersedes the point writes
        }
        let (old_rel, new_rel) = (base.relation(&rel), after.relation(&rel));
        let (Ok(old_rel), Ok(new_rel)) = (old_rel, new_rel) else {
            // the entry appeared, vanished, or changed kind mid-commit —
            // too coarse for a row delta
            entries.push((rel, EntryDelta::Replaced));
            continue;
        };
        let mut changes = Vec::new();
        for key in keys {
            let old = old_rel.lookup(&key);
            let new = new_rel.lookup(&key);
            changes.extend(change(key, old, new));
        }
        if !changes.is_empty() {
            entries.push((rel, EntryDelta::Rows(changes)));
        }
    }
    for name in replaced {
        entries.push((name, EntryDelta::Replaced));
    }
    DbDelta { entries }
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

/// [`delta_from_ops`] for a commit whose working copy installed as it is,
/// read off its own writes with no root lookup: `replaced[i]` is the tuple
/// `ops[i]` replaced, so a key's old side is what its first write
/// replaced and its new side what its last write left. The same delta,
/// entry for entry (`commit_delta_equals_between`).
fn delta_from_writes(ops: &[Op], replaced: &[Option<Arc<TupleF>>]) -> DbDelta {
    let mut rebound: BTreeSet<&Name> = BTreeSet::new();
    // every point write as (relation, key, op index), in that order
    let mut writes: Vec<(&Name, &Value, usize)> = Vec::with_capacity(ops.len());
    for (at, op) in ops.iter().enumerate() {
        match op {
            Op::Upsert { rel, key, .. } | Op::Delete { rel, key } => writes.push((rel, key, at)),
            Op::Assign { name, .. } | Op::Drop { name } => {
                rebound.insert(name);
            }
        }
    }
    writes.sort_unstable();
    let mut entries: Vec<(Name, EntryDelta)> = Vec::new();
    for of_rel in writes.chunk_by(|a, b| a.0 == b.0) {
        let rel = of_rel[0].0;
        if rebound.contains(rel) {
            continue; // the rebind supersedes the point writes
        }
        let mut changes = Vec::new();
        for of_key in of_rel.chunk_by(|a, b| a.1 == b.1) {
            let ((_, key, first), (.., last)) = (of_key[0], of_key[of_key.len() - 1]);
            let new = match &ops[last] {
                Op::Upsert { tuple, .. } => Some(Arc::clone(tuple)),
                _ => None,
            };
            changes.extend(change(key.clone(), replaced[first].clone(), new));
        }
        if !changes.is_empty() {
            entries.push((rel.clone(), EntryDelta::Rows(changes)));
        }
    }
    for name in rebound {
        entries.push((name.clone(), EntryDelta::Replaced));
    }
    DbDelta { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use fdm_core::TupleF;
    use fdm_fql::prelude::Params;
    use fdm_fql::testutil::retail_db;
    use fdm_fql::update::db_upsert;
    use fdm_fql::DynamicView;
    use proptest::prelude::*;
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
        /// Both builders are checked — the lookups into the two roots and
        /// the read-off of the transaction's own writes — and then the
        /// store's three paths to them: a working copy that installs as it
        /// is (its own writes), one that replays because a commit landed
        /// between its snapshot and its install, and a `commit_batch`
        /// group (both lookups).
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
                    after = crate::writeset::apply_ops(&after, std::slice::from_ref(&op)).unwrap();
                    ops.push(op);
                }
            }
            matches_between(&delta_from_ops(&before, &after, &ops), &before, &after, &rebound);
            matches_between(&delta_from_writes(&ops, &replaced), &before, &after, &rebound);

            // a ledger no drawn step touches, for the writer that lands
            // beside or between
            let shop = retail_db().with_relation(fdm_core::RelationF::new("ledger", &["id"]));
            let ledger = |t: &mut crate::Transaction| {
                t.upsert("ledger", Value::Int(1), (*customer(1, "L", 1)).clone()).unwrap()
            };
            for path in ["as it is", "replayed", "batched"] {
                let store = Store::new(shop.clone());
                // a manual view keeps every commit's delta pending
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
                let ours = store.views.inner.lock().pending.get(&head).map(|(d, _)| d.clone());
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

    #[test]
    fn out_of_order_commits_buffer_behind_the_gap() {
        let db0 = retail_db();
        let catalog = ViewCatalog::default();
        catalog
            .register("olds", olds_query(), RefreshMode::Eager, || {
                (0, db0.clone())
            })
            .unwrap();

        let db1 = db_upsert(
            &db0,
            "customers",
            Value::Int(9),
            (*customer(9, "Zoe", 70)).clone(),
        )
        .unwrap();
        let db2 = db_upsert(
            &db1,
            "customers",
            Value::Int(10),
            (*customer(10, "Yan", 61)).clone(),
        )
        .unwrap();

        // v2 arrives first: the view must NOT jump the v1 gap
        catalog.observe(2, &[upsert_op(10, "Yan", 61)], None, &db1, &db2);
        let (v, rel) = catalog.read("olds").unwrap();
        assert_eq!((v, rel.len()), (0, 2), "gap holds the watermark at v0");

        // the straggler fills the gap: both drain, in order, each through
        // the delta its own commit built
        catalog.observe(1, &[upsert_op(9, "Zoe", 70)], None, &db0, &db1);
        let (v, rel) = catalog.read("olds").unwrap();
        assert_eq!(v, 2);
        assert_eq!(keyed(&rel), keyed(&olds_query().eval(&db2).unwrap()));
        assert!(catalog.inner.lock().pending.is_empty(), "all consumed");
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
        assert!(store.views.inner.lock().pending.is_empty());

        store.register_view("olds", olds_query()).unwrap();
        store
            .register_view("names", Query::scan("customers").project(&["name"]))
            .unwrap();
        store
            .register_view_with("late", olds_query(), RefreshMode::Manual)
            .unwrap();
        let head = commit(11).max(commit(12)).max(commit(13));
        assert_eq!(built(), 3, "three commits, three views, three deltas");
        // the manual view has not consumed them: the deltas wait for it
        assert_eq!(store.views.inner.lock().pending.len(), 3);
        assert_eq!(store.refresh_views_to(head).unwrap(), head);
        assert_eq!(built(), 3, "a refresh re-reads the stored deltas");
        assert!(store.views.inner.lock().pending.is_empty());
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
        let rebound = crate::writeset::apply_ops(
            &store.snapshot(),
            &[upsert_op(9, "Zoe", 70), upsert_op(10, "Kid", 12)],
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
