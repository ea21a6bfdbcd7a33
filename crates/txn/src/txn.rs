//! The transaction object (paper Fig. 11).
//!
//! A transaction holds a snapshot of the database function and applies
//! changes to it **immediately** — "note the absence of an explicit
//! save()-method: changes are applied immediately to the snapshot"
//! (Fig. 10 caption). Persistence makes this safe: the working copy
//! shares structure with the committed root but never disturbs it. Each
//! write is an [`Op`] applied in place by [`apply_op`]: the first write
//! to a path copies it out of the snapshot, later writes edit the copy.
//!
//! `commit()` takes its turn in the store's commit sequencer and
//! validates the write set against everything committed since the
//! snapshot: disjoint writers replay their recorded operations onto the
//! newest root and win; overlapping writers get
//! [`FdmError::TransactionConflict`] — first committer wins.

use crate::store::{CommitOutcome, CommitPolicy, Group, Store, Working};
use fdm_core::{apply_op, DatabaseF, FdmError, FnValue, Name, Op, Result, TupleF, Value};
use fdm_storage::Version;
use std::sync::Arc;

/// An in-flight transaction.
pub struct Transaction {
    store: Arc<Store>,
    base_version: Version,
    /// The working database: snapshot + own writes (read-your-writes).
    working: DatabaseF,
    /// What it wrote, in order: the ops a replay reapplies, the WAL
    /// record stores and validation derives the write set from.
    ops: Vec<Op>,
    /// Beside each recorded op, the tuple its point write replaced in the
    /// working copy's stored map (`None` for an insert and for an entry
    /// op): what the commit's record keeps when the working copy installs
    /// as it is.
    replaced: Vec<Option<Arc<TupleF>>>,
}

impl Transaction {
    pub(crate) fn new(store: Arc<Store>, base_version: Version, snapshot: DatabaseF) -> Self {
        Transaction {
            store,
            base_version,
            working: snapshot,
            ops: Vec::new(),
            replaced: Vec::new(),
        }
    }

    /// Applies `op` to the working copy in place ([`apply_op`], the
    /// routine replay and recovery run too) and records it beside the
    /// tuple it replaced. A failing op records nothing and leaves the
    /// working copy as it was.
    fn stage(&mut self, op: Op) -> Result<()> {
        let old = apply_op(&mut self.working, &op)?;
        self.ops.push(op);
        self.replaced.push(old);
        Ok(())
    }

    /// The version this transaction's snapshot was taken at.
    pub fn base_version(&self) -> Version {
        self.base_version
    }

    /// The transaction's current view: snapshot plus its own writes.
    pub fn db(&self) -> &DatabaseF {
        &self.working
    }

    /// Reads one tuple (from the transaction's own view).
    pub fn get(&self, rel: &str, key: &Value) -> Result<Option<Arc<TupleF>>> {
        Ok(self.working.relation(rel)?.lookup(key))
    }

    /// The tuple under `key`, or [`FdmError::Undefined`] when there is none.
    fn defined(&self, rel: &str, key: &Value) -> Result<Arc<TupleF>> {
        self.get(rel, key)?.ok_or_else(|| FdmError::Undefined {
            function: rel.to_string(),
            input: key.to_string(),
        })
    }

    /// Reads one attribute of one tuple.
    pub fn get_attr(&self, rel: &str, key: &Value, attr: &str) -> Result<Value> {
        self.defined(rel, key)?.get(attr)
    }

    /// `rel[key] = tuple` — insert-or-replace.
    pub fn upsert(&mut self, rel: &str, key: Value, tuple: TupleF) -> Result<()> {
        // one shared tuple for the working copy, the recorded op (and so
        // the WAL record) and any replay
        self.stage(Op::Upsert {
            rel: Name::from(rel),
            key,
            tuple: Arc::new(tuple),
        })
    }

    /// `del rel[key]`.
    pub fn delete(&mut self, rel: &str, key: &Value) -> Result<()> {
        self.stage(Op::Delete {
            rel: Name::from(rel),
            key: key.clone(),
        })
    }

    /// `rel[key][attr] = value`.
    pub fn update_attr(
        &mut self,
        rel: &str,
        key: &Value,
        attr: &str,
        value: impl Into<Value>,
    ) -> Result<()> {
        let t = self.defined(rel, key)?;
        self.upsert(rel, key.clone(), t.with_attr(attr, value))
    }

    /// `rel[key][attr] op= ...` — read-modify-write of one attribute
    /// (the Fig. 11 `accounts[42]['balance'] -= 100`). The tuple is fetched
    /// once: the old value is read off it and the replacement built from it.
    pub fn modify_attr(
        &mut self,
        rel: &str,
        key: &Value,
        attr: &str,
        f: impl FnOnce(&Value) -> Result<Value>,
    ) -> Result<()> {
        let t = self.defined(rel, key)?;
        let new = f(&t.get(attr)?)?;
        self.upsert(rel, key.clone(), t.with_attr(attr, new))
    }

    /// Auto-id insert ([`fdm_core::RelationF::insert_auto`]'s key, staged as one
    /// upsert); returns the assigned key.
    pub fn add(&mut self, rel: &str, tuple: TupleF) -> Result<Value> {
        let key = self.working.relation_ref(rel)?.auto_key()?;
        self.upsert(rel, key.clone(), tuple)?;
        Ok(key)
    }

    /// `DB(name) := f` — whole-entry assignment (in-place FQL, §4.4).
    /// Conflicts with *any* concurrent write touching `name`.
    pub fn assign(&mut self, name: &str, f: impl Into<FnValue>) -> Result<()> {
        self.stage(Op::Assign {
            name: Name::from(name),
            value: f.into(),
        })
    }

    /// Removes a whole entry.
    pub fn drop_entry(&mut self, name: &str) -> Result<()> {
        self.stage(Op::Drop {
            name: Name::from(name),
        })
    }

    /// Number of recorded write operations.
    pub fn write_count(&self) -> usize {
        self.ops.len()
    }

    /// Abandons the transaction; the committed database is untouched
    /// (trivially so — the working copy was private all along).
    pub fn rollback(self) {}

    /// Validates and commits under the store's default [`CommitPolicy`].
    /// On success returns the new version.
    ///
    /// Read-only transactions commit without touching the root.
    pub fn commit(self) -> Result<Version> {
        let policy = self.store.policy().clone();
        self.commit_with(&policy).map(|o| o.version)
    }

    /// Validates and commits under an explicit [`CommitPolicy`],
    /// reporting a structured [`CommitOutcome`].
    ///
    /// A commit is the batch of one: it goes through the same
    /// `Store::commit_group` as [`Store::commit_batch`], bringing its
    /// working copy as the candidate root. Inside the commit sequencer
    /// the write set is validated against everything committed since the
    /// snapshot; if nothing was, the working copy installs as it is, else
    /// the recorded operations replay onto the newest root. There is no
    /// install race to lose, so a commit either lands on its first
    /// attempt or fails for good:
    ///
    /// * **Genuine** write-write conflicts — another commit since our
    ///   snapshot touched the same `(relation, key)` — are terminal:
    ///   [`FdmError::TransactionConflict`] carries the conflicting keys
    ///   and is never retried. Recorded operations hold final values (a
    ///   read-modify-write's result, not its delta), so blindly replaying
    ///   them over the other committer's version would silently lose its
    ///   update. The safe retry is to re-derive the writes from a fresh
    ///   snapshot — [`Store::run_with`] does exactly that.
    /// * **Injected** faults (test and `fault-injection` builds) are the
    ///   one transient loss left: the policy's seeded backoff paces up to
    ///   `max_attempts` rounds, the survived faults are reported in
    ///   [`CommitOutcome::conflicts`], exhausting the budget yields
    ///   [`FdmError::TransactionRetriesExhausted`] and exceeding
    ///   `policy.timeout` yields [`FdmError::TransactionTimeout`].
    pub fn commit_with(self, policy: &CommitPolicy) -> Result<CommitOutcome> {
        if self.ops.is_empty() {
            return Ok(CommitOutcome {
                version: self.base_version,
                attempts: 0,
                conflicts: Vec::new(),
            });
        }
        let mut group = Group::default();
        group.push(0, self.base_version, self.ops);
        let working = Working {
            db: self.working,
            replaced: self.replaced,
        };
        let mut outcome = [None];
        self.store
            .commit_group(group, Some(working), policy, &mut outcome);
        let [outcome] = outcome;
        outcome.expect("the sole member got a result")
    }

    /// Decomposes the transaction into its commit ingredients — the
    /// batch committer's entry point ([`crate::batch`]); the transaction
    /// is consumed, exactly like `commit`.
    pub(crate) fn into_parts(self) -> (Version, Vec<Op>) {
        (self.base_version, self.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use fdm_core::RelationF;

    fn bank() -> Arc<Store> {
        let accounts = RelationF::new("accounts", &["id"])
            .insert(
                Value::Int(42),
                TupleF::builder("a").attr("balance", 1000).build(),
            )
            .unwrap()
            .insert(
                Value::Int(84),
                TupleF::builder("a").attr("balance", 500).build(),
            )
            .unwrap();
        Store::new(DatabaseF::new("bank").with_relation(accounts))
    }

    fn balance(db: &DatabaseF, id: i64) -> i64 {
        db.relation("accounts")
            .unwrap()
            .lookup(&Value::Int(id))
            .unwrap()
            .get("balance")
            .unwrap()
            .as_int("balance")
            .unwrap()
    }

    #[test]
    fn fig11_transfer() {
        let store = bank();
        let mut txn = store.begin();
        txn.modify_attr("accounts", &Value::Int(42), "balance", |v| {
            v.sub(&Value::Int(100))
        })
        .unwrap();
        txn.modify_attr("accounts", &Value::Int(84), "balance", |v| {
            v.add(&Value::Int(100))
        })
        .unwrap();
        // before commit, the store sees nothing
        assert_eq!(balance(&store.snapshot(), 42), 1000);
        txn.commit().unwrap();
        let db = store.snapshot();
        assert_eq!(balance(&db, 42), 900);
        assert_eq!(balance(&db, 84), 600);
        assert_eq!(balance(&db, 42) + balance(&db, 84), 1500, "money conserved");
    }

    /// Replaces `unrecorded_winner_blocks_validation`. The lost update of
    /// benchmark finding 4 needed a version that was installed but not yet
    /// in the commit log; the sequencer pushes a version's record before it
    /// installs its root, so every version up to the store's is in the
    /// ring — and a stale overlapping writer meets the ordinary terminal
    /// conflict on the single path and the batched one, while a disjoint
    /// stale writer replays cleanly.
    #[test]
    fn every_installed_version_is_logged_so_a_stale_writer_conflicts() {
        let store = bank();
        let policy = CommitPolicy::default().with_max_attempts(3);
        let stale = |id: i64| {
            let mut t = store.begin(); // snapshot v0
            t.modify_attr("accounts", &Value::Int(id), "balance", |v| {
                v.add(&Value::Int(1))
            })
            .unwrap();
            t
        };
        let (single, batched, disjoint) = (stale(42), stale(42), stale(84));

        // the winner: +100 on account 42
        store
            .run(|t| {
                t.modify_attr("accounts", &Value::Int(42), "balance", |v| {
                    v.add(&Value::Int(100))
                })
            })
            .unwrap();
        assert_eq!(store.log_versions(), vec![1]);
        assert_eq!(store.history().versions(), vec![0, 1]);

        let err = single.commit_with(&policy).unwrap_err();
        assert!(
            matches!(err, FdmError::TransactionConflict { .. }),
            "{err:?}"
        );
        let err = store
            .commit_batch(vec![batched], &crate::BatchPolicy::default())
            .remove(0)
            .unwrap_err();
        assert!(
            matches!(err, FdmError::TransactionConflict { .. }),
            "{err:?}"
        );
        assert_eq!(store.version(), 1, "nothing committed over the winner");
        assert_eq!(balance(&store.snapshot(), 42), 1100);

        // a disjoint stale writer replays cleanly on top of it, first try
        let outcome = disjoint.commit_with(&policy).unwrap();
        assert_eq!((outcome.version, outcome.attempts), (2, 1));
        assert!(outcome.conflicts.is_empty());
        let db = store.snapshot();
        assert_eq!((balance(&db, 42), balance(&db, 84)), (1100, 501));
        assert_eq!(store.log_versions(), vec![1, 2]);
    }

    #[test]
    fn read_your_own_writes() {
        let store = bank();
        let mut txn = store.begin();
        txn.update_attr("accounts", &Value::Int(42), "balance", 7)
            .unwrap();
        assert_eq!(
            txn.get_attr("accounts", &Value::Int(42), "balance")
                .unwrap(),
            Value::Int(7)
        );
        txn.rollback();
        assert_eq!(balance(&store.snapshot(), 42), 1000, "rollback discards");
    }

    #[test]
    fn first_committer_wins_on_same_key() {
        let store = bank();
        let mut t1 = store.begin();
        let mut t2 = store.begin();
        t1.modify_attr("accounts", &Value::Int(42), "balance", |v| {
            v.sub(&Value::Int(10))
        })
        .unwrap();
        t2.modify_attr("accounts", &Value::Int(42), "balance", |v| {
            v.sub(&Value::Int(20))
        })
        .unwrap();
        t1.commit().unwrap();
        let err = t2.commit().unwrap_err();
        assert!(matches!(err, FdmError::TransactionConflict { .. }), "{err}");
        // the first committer's write survives; no lost update
        assert_eq!(balance(&store.snapshot(), 42), 990);
    }

    #[test]
    fn disjoint_writers_both_commit() {
        let store = bank();
        let mut t1 = store.begin();
        let mut t2 = store.begin();
        t1.update_attr("accounts", &Value::Int(42), "balance", 1)
            .unwrap();
        t2.update_attr("accounts", &Value::Int(84), "balance", 2)
            .unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap();
        let db = store.snapshot();
        assert_eq!(balance(&db, 42), 1);
        assert_eq!(balance(&db, 84), 2);
    }

    #[test]
    fn snapshot_isolation_reads_ignore_concurrent_commits() {
        let store = bank();
        let txn = store.begin();
        // someone else commits mid-flight
        store
            .upsert_one(
                "accounts",
                Value::Int(99),
                TupleF::builder("a").attr("balance", 1).build(),
            )
            .unwrap();
        // our snapshot does not see it
        assert!(txn.get("accounts", &Value::Int(99)).unwrap().is_none());
        assert_eq!(txn.db().relation("accounts").unwrap().len(), 2);
    }

    #[test]
    fn entry_assignment_conflicts_with_key_write() {
        let store = bank();
        let mut t1 = store.begin();
        let mut t2 = store.begin();
        t1.assign("accounts", RelationF::new("accounts", &["id"]))
            .unwrap();
        t2.update_attr("accounts", &Value::Int(42), "balance", 0)
            .unwrap();
        t1.commit().unwrap();
        let err = t2.commit().unwrap_err();
        assert!(matches!(err, FdmError::TransactionConflict { .. }));
        assert_eq!(store.snapshot().relation("accounts").unwrap().len(), 0);
    }

    #[test]
    fn read_only_txn_commits_trivially() {
        let store = bank();
        let txn = store.begin();
        let _ = txn.get("accounts", &Value::Int(42)).unwrap();
        let v = txn.commit().unwrap();
        assert_eq!(v, 0, "no version bump for read-only");
    }

    #[test]
    fn add_assigns_sequential_keys_and_conflicts() {
        let store = bank();
        let mut t1 = store.begin();
        let mut t2 = store.begin();
        let k1 = t1
            .add("accounts", TupleF::builder("a").attr("balance", 0).build())
            .unwrap();
        let k2 = t2
            .add("accounts", TupleF::builder("a").attr("balance", 0).build())
            .unwrap();
        assert_eq!(k1, Value::Int(85));
        assert_eq!(
            k2,
            Value::Int(85),
            "both reserved the same id from the same snapshot"
        );
        t1.commit().unwrap();
        assert!(
            t2.commit().is_err(),
            "auto-id collision is a write-write conflict"
        );
    }

    #[test]
    fn delete_in_txn() {
        let store = bank();
        let mut txn = store.begin();
        txn.delete("accounts", &Value::Int(84)).unwrap();
        txn.commit().unwrap();
        assert_eq!(store.snapshot().relation("accounts").unwrap().len(), 1);
    }

    /// `modify_attr` fetches the tuple once; what it reports and stages on
    /// the failing paths is what the three-descent version did.
    #[test]
    fn modify_attr_fails_without_staging() {
        let store = bank();
        let mut txn = store.begin();
        let missing = txn.modify_attr("accounts", &Value::Int(7), "balance", |_| {
            panic!("no tuple, so nothing to modify")
        });
        assert!(
            matches!(&missing, Err(FdmError::Undefined { function, input })
                if function == "accounts" && input == "7"),
            "{missing:?}"
        );
        let no_attr = txn.modify_attr("accounts", &Value::Int(42), "limit", |v| Ok(v.clone()));
        assert!(no_attr.is_err(), "an attribute the tuple lacks");
        let refused = txn.modify_attr("accounts", &Value::Int(42), "balance", |_| {
            Err(FdmError::Other("refused".into()))
        });
        assert!(matches!(&refused, Err(FdmError::Other(m)) if m == "refused"));
        assert_eq!(txn.write_count(), 0, "a failed modify stages nothing");
        assert_eq!(balance(txn.db(), 42), 1000);
    }

    #[test]
    fn drop_entry_in_txn() {
        let store = bank();
        let mut txn = store.begin();
        txn.drop_entry("accounts").unwrap();
        txn.commit().unwrap();
        assert!(!store.snapshot().contains("accounts"));
    }
}
