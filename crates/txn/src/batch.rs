//! Write batching: coalescing compatible small commits into one install
//! and one WAL record.
//!
//! The serving workload is dominated by tiny transactions (a single
//! read-modify-write of one tuple). Committed one at a time, each pays a
//! turn in the commit sequencer, a commit record in the history, and —
//! on a durable store — its own WAL record and, under
//! [`SyncPolicy::Always`](fdm_durability::SyncPolicy), its own wait for
//! an fsync. [`Store::commit_batch`] amortizes all of that: a *group* of
//! transactions whose write sets are pairwise disjoint is validated,
//! replayed onto the current root in submission order, and installed as
//! **one** version with **one** WAL record (group commit at the
//! transaction layer, stacking with the WAL's own group buffer
//! underneath). A plain `commit` is the group of one: both go through
//! the same `Store::commit_group`.
//!
//! # Conflict semantics are unchanged
//!
//! Batching never widens or narrows what commits:
//!
//! * A member whose write set overlaps a commit made since its snapshot
//!   fails with exactly the [`FdmError::TransactionConflict`] the
//!   one-at-a-time path raises — first committer wins, validated against
//!   the same history records at flush time.
//! * A member whose write set overlaps an **earlier member of the same
//!   batch** also fails with `TransactionConflict`: submitted one at a
//!   time, the earlier transaction would have committed first and the
//!   later one would have lost validation against it. The earlier member
//!   wins, exactly as sequential submission orders them.
//! * Read-only members commit trivially (no version bump), as ever.
//!
//! What *does* change is version arithmetic: a flushed group installs
//! one version for all its members, where sequential submission would
//! install one per transaction. Every member's [`CommitOutcome`] carries
//! that shared version. The serving-equivalence suite pins the semantic
//! bar: the database a batched store reaches at each group boundary is
//! byte-identical to the one-at-a-time store at the matching operation
//! prefix.

use crate::store::{CommitOutcome, CommitPolicy, Group, Store};
use crate::txn::Transaction;
use crate::writeset::WriteSet;
use fdm_core::{FdmError, Result};
use std::sync::Arc;

/// How aggressively [`Store::commit_batch`] coalesces.
#[derive(Debug, Clone)]
pub struct BatchPolicy {
    /// Maximum transactions folded into one installed version; a full
    /// group flushes and the next transaction starts a new one.
    pub max_txns: usize,
    /// Maximum recorded operations per installed version — bounds the
    /// single WAL record a group becomes (the WAL enforces a hard
    /// payload ceiling; keep groups well under it).
    pub max_ops: usize,
    /// Retry policy for each group's commit, same semantics as a single
    /// commit's [`CommitPolicy`].
    pub commit: CommitPolicy,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_txns: 64,
            max_ops: 4096,
            commit: CommitPolicy::default(),
        }
    }
}

impl BatchPolicy {
    /// A policy that flushes after at most `n` transactions.
    pub fn with_max_txns(mut self, n: usize) -> Self {
        self.max_txns = n.max(1);
        self
    }

    /// Overrides the group-install commit policy.
    pub fn with_commit(mut self, policy: CommitPolicy) -> Self {
        self.commit = policy;
        self
    }
}

impl Store {
    /// Commits `txns` in submission order, coalescing compatible runs
    /// into single installed versions (see the module docs). Returns one
    /// result per transaction, in submission order.
    pub fn commit_batch(
        self: &Arc<Self>,
        txns: Vec<Transaction>,
        policy: &BatchPolicy,
    ) -> Vec<Result<CommitOutcome>> {
        let n = txns.len();
        let mut outcomes: Vec<Option<Result<CommitOutcome>>> = (0..n).map(|_| None).collect();
        let mut group = Group::default();
        for (index, txn) in txns.into_iter().enumerate() {
            let (base_version, ops) = txn.into_parts();
            if ops.is_empty() {
                // read-only: commits trivially at its own snapshot, no
                // version bump — identical to Transaction::commit_with
                outcomes[index] = Some(Ok(CommitOutcome {
                    version: base_version,
                    attempts: 0,
                    conflicts: Vec::new(),
                }));
                continue;
            }
            // first-committer-wins *inside* the batch: an overlap with an
            // earlier member is the conflict sequential submission would
            // have raised after that member committed
            let winner = group
                .members
                .iter()
                .find(|m| ops.iter().any(|op| m.writes.overlaps(op)));
            if let Some(winner) = winner {
                let writes = WriteSet::from_ops(&ops);
                outcomes[index] = Some(Err(FdmError::TransactionConflict {
                    detail: format!(
                        "write-write conflict with batched transaction #{} on {}",
                        winner.index,
                        writes.describe_overlap(&winner.writes)
                    ),
                    keys: writes.conflict_keys(&winner.writes),
                }));
                continue;
            }
            if group.members.len() >= policy.max_txns.max(1)
                || (!group.members.is_empty()
                    && group.ops.len() + ops.len() > policy.max_ops.max(1))
            {
                let full = std::mem::take(&mut group);
                self.commit_group(full, None, &policy.commit, &mut outcomes);
            }
            group.push(index, base_version, ops);
        }
        self.commit_group(group, None, &policy.commit, &mut outcomes);
        outcomes
            .into_iter()
            .map(|o| o.expect("every transaction got a result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdm_core::{DatabaseF, RelationF, TupleF, Value};

    fn bank(n: i64) -> Arc<Store> {
        let mut accounts = RelationF::new("accounts", &["id"]);
        for i in 1..=n {
            accounts = accounts
                .insert(
                    Value::Int(i),
                    TupleF::builder("a").attr("balance", 100 * i).build(),
                )
                .unwrap();
        }
        Store::new(DatabaseF::new("bank").with_relation(accounts))
    }

    fn balance(store: &Arc<Store>, id: i64) -> i64 {
        store
            .snapshot()
            .relation("accounts")
            .unwrap()
            .lookup(&Value::Int(id))
            .unwrap()
            .get("balance")
            .unwrap()
            .as_int("balance")
            .unwrap()
    }

    #[test]
    fn disjoint_batch_installs_one_version() {
        let store = bank(8);
        let mut txns = Vec::new();
        for i in 1..=8 {
            let mut t = store.begin();
            t.update_attr("accounts", &Value::Int(i), "balance", i)
                .unwrap();
            txns.push(t);
        }
        let before = store.version();
        let outcomes = store.commit_batch(txns, &BatchPolicy::default());
        assert_eq!(store.version(), before + 1, "one install for the group");
        for (i, o) in outcomes.iter().enumerate() {
            let o = o.as_ref().unwrap();
            assert_eq!(o.version, before + 1, "member {i} shares the group version");
        }
        for i in 1..=8 {
            assert_eq!(balance(&store, i), i);
        }
    }

    #[test]
    fn in_batch_overlap_is_first_committer_wins() {
        let store = bank(2);
        let mut a = store.begin();
        a.update_attr("accounts", &Value::Int(1), "balance", 1)
            .unwrap();
        let mut b = store.begin();
        b.update_attr("accounts", &Value::Int(1), "balance", 2)
            .unwrap();
        let outcomes = store.commit_batch(vec![a, b], &BatchPolicy::default());
        assert!(outcomes[0].is_ok());
        assert!(
            matches!(outcomes[1], Err(FdmError::TransactionConflict { .. })),
            "later member loses, exactly like sequential submission"
        );
        assert_eq!(balance(&store, 1), 1, "first submitted write survives");
    }

    #[test]
    fn conflict_with_prior_commit_is_terminal() {
        let store = bank(2);
        let mut stale = store.begin();
        stale
            .update_attr("accounts", &Value::Int(1), "balance", 7)
            .unwrap();
        // someone else commits the same key first
        store
            .upsert_one(
                "accounts",
                Value::Int(1),
                TupleF::builder("a").attr("balance", 999).build(),
            )
            .unwrap();
        let outcomes = store.commit_batch(vec![stale], &BatchPolicy::default());
        assert!(matches!(
            outcomes[0],
            Err(FdmError::TransactionConflict { .. })
        ));
        assert_eq!(balance(&store, 1), 999, "first committer wins");
    }

    #[test]
    fn read_only_members_commit_trivially() {
        let store = bank(2);
        let ro = store.begin();
        let mut rw = store.begin();
        rw.update_attr("accounts", &Value::Int(2), "balance", 5)
            .unwrap();
        let outcomes = store.commit_batch(vec![ro, rw], &BatchPolicy::default());
        let ro = outcomes[0].as_ref().unwrap();
        assert_eq!((ro.version, ro.attempts), (0, 0));
        assert_eq!(outcomes[1].as_ref().unwrap().version, 1);
    }

    #[test]
    fn max_txns_splits_groups() {
        let store = bank(6);
        let mut txns = Vec::new();
        for i in 1..=6 {
            let mut t = store.begin();
            t.update_attr("accounts", &Value::Int(i), "balance", 0)
                .unwrap();
            txns.push(t);
        }
        let policy = BatchPolicy::default().with_max_txns(2);
        let outcomes = store.commit_batch(txns, &policy);
        assert_eq!(store.version(), 3, "six txns in groups of two");
        let versions: Vec<_> = outcomes
            .iter()
            .map(|o| o.as_ref().unwrap().version)
            .collect();
        assert_eq!(versions, vec![1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn batched_final_state_matches_sequential() {
        // the unit-level differential oracle; the integration suite
        // replays full Zipf streams through the same comparison
        let mk_txns = |store: &Arc<Store>| {
            (1..=5)
                .map(|i| {
                    let mut t = store.begin();
                    t.update_attr("accounts", &Value::Int(i), "balance", i * 7)
                        .unwrap();
                    t
                })
                .collect::<Vec<_>>()
        };
        let batched = bank(5);
        let outcomes = batched.commit_batch(mk_txns(&batched), &BatchPolicy::default());
        assert!(outcomes.iter().all(Result::is_ok));

        let sequential = bank(5);
        for t in mk_txns(&sequential) {
            t.commit().unwrap();
        }
        for i in 1..=5 {
            assert_eq!(balance(&batched, i), balance(&sequential, i));
        }
        assert_eq!(batched.version(), 1);
        assert_eq!(sequential.version(), 5);
    }
}
