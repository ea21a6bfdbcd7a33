//! Write sets for snapshot-isolation commits: what a list of recorded
//! [`Op`]s touches, and whether two such lists conflict.

use fdm_core::{Name, Op, Value};
use std::collections::{BTreeMap, BTreeSet};

/// What a transaction wrote: per-relation keys, or whole entries.
///
/// Two write sets **conflict** when they touch the same `(relation, key)`
/// pair, or one of them replaced a whole entry the other touched at all.
#[derive(Debug, Default, Clone)]
pub(crate) struct WriteSet {
    /// Point writes: per relation, the keys written.
    keys: BTreeMap<Name, BTreeSet<Value>>,
    /// Whole-entry replacements (`DB(name) := f`).
    entries: BTreeSet<Name>,
}

impl WriteSet {
    /// The write set a list of recorded operations touches: a committing
    /// transaction's, a recovered WAL record's, or a conflicting commit's.
    pub(crate) fn from_ops(ops: &[Op]) -> WriteSet {
        let mut ws = WriteSet::default();
        for op in ops {
            match op {
                Op::Upsert { rel, key, .. } | Op::Delete { rel, key } => ws.touch_key(rel, key),
                Op::Assign { name, .. } | Op::Drop { name } => ws.touch_entry(name),
            }
        }
        ws
    }

    /// Records a point write.
    fn touch_key(&mut self, rel: &Name, key: &Value) {
        self.keys
            .entry(rel.clone())
            .or_default()
            .insert(key.clone());
    }

    /// Records a whole-entry replacement.
    fn touch_entry(&mut self, name: &Name) {
        self.entries.insert(name.clone());
    }

    /// `true` if `op` writes what this set wrote: the same key, or an
    /// entry one side replaced whole. Validation runs it against each
    /// retained commit's ops and a batch against each candidate's, by
    /// lookup, with nothing cloned.
    pub(crate) fn overlaps(&self, op: &Op) -> bool {
        match op {
            Op::Upsert { rel, key, .. } | Op::Delete { rel, key } => {
                self.entries.contains(rel) || self.keys.get(rel).is_some_and(|k| k.contains(key))
            }
            Op::Assign { name, .. } | Op::Drop { name } => {
                self.entries.contains(name) || self.keys.contains_key(name)
            }
        }
    }

    /// The entries one side replaced whole and the other touched at all.
    fn entry_overlaps<'a>(&'a self, other: &'a WriteSet) -> impl Iterator<Item = &'a Name> {
        let touched = |e: &&Name| other.entries.contains(*e) || other.keys.contains_key(*e);
        let ours = self.entries.iter().filter(touched);
        ours.chain(other.entries.iter().filter(|e| self.keys.contains_key(*e)))
    }

    /// The `(relation, key)` pairs both sets wrote, in order.
    fn key_overlaps<'a>(
        &'a self,
        other: &'a WriteSet,
    ) -> impl Iterator<Item = (&'a Name, &'a Value)> {
        self.keys.iter().flat_map(move |(rel, keys)| {
            let theirs = other.keys.get(rel);
            let both = keys
                .iter()
                .filter(move |k| theirs.is_some_and(|t| t.contains(*k)));
            both.map(move |k| (rel, k))
        })
    }

    /// Write-write conflict test, set against set: the reference the
    /// per-op [`WriteSet::overlaps`] that validation runs is tested against.
    #[cfg(test)]
    fn conflicts_with(&self, other: &WriteSet) -> bool {
        self.entry_overlaps(other).next().is_some() || self.key_overlaps(other).next().is_some()
    }

    /// Every conflicting pair with `other`, in display form, for the
    /// structured `keys` field of `FdmError::TransactionConflict`:
    /// key-granular conflicts as `(relation, key)`, whole-entry conflicts
    /// as `(entry, "*")`.
    pub(crate) fn conflict_keys(&self, other: &WriteSet) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = Vec::new();
        for e in self.entry_overlaps(other) {
            let pair = (e.to_string(), "*".to_string());
            if !out.contains(&pair) {
                out.push(pair);
            }
        }
        let keys = self.key_overlaps(other);
        out.extend(keys.map(|(rel, k)| (rel.to_string(), k.to_string())));
        out
    }

    /// Human-readable description of the first overlap with `other`
    /// (for conflict error messages).
    pub(crate) fn describe_overlap(&self, other: &WriteSet) -> String {
        if let Some(e) = self.entry_overlaps(other).next() {
            return format!("entry '{e}'");
        }
        match self.key_overlaps(other).next() {
            Some((rel, k)) => format!("{rel}[{k}]"),
            None => "(no overlap)".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use fdm_core::{apply_ops, DatabaseF, TupleF};
    use std::sync::Arc;

    fn n(s: &str) -> Name {
        Name::from(s)
    }

    #[test]
    fn disjoint_key_writes_do_not_conflict() {
        let mut a = WriteSet::default();
        a.touch_key(&n("accounts"), &Value::Int(1));
        let mut b = WriteSet::default();
        b.touch_key(&n("accounts"), &Value::Int(2));
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn same_key_conflicts() {
        let mut a = WriteSet::default();
        a.touch_key(&n("accounts"), &Value::Int(1));
        let mut b = WriteSet::default();
        b.touch_key(&n("accounts"), &Value::Int(1));
        assert!(a.conflicts_with(&b));
        assert!(b.conflicts_with(&a));
        assert!(a.describe_overlap(&b).contains("accounts[1]"));
    }

    #[test]
    fn entry_write_conflicts_with_key_write() {
        let mut a = WriteSet::default();
        a.touch_entry(&n("accounts"));
        let mut b = WriteSet::default();
        b.touch_key(&n("accounts"), &Value::Int(7));
        assert!(a.conflicts_with(&b));
        assert!(b.conflicts_with(&a), "symmetric");
        let mut c = WriteSet::default();
        c.touch_key(&n("other"), &Value::Int(7));
        assert!(!a.conflicts_with(&c));
    }

    #[test]
    fn same_key_different_relations_no_conflict() {
        let mut a = WriteSet::default();
        a.touch_key(&n("accounts"), &Value::Int(1));
        let mut b = WriteSet::default();
        b.touch_key(&n("orders"), &Value::Int(1));
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn conflict_keys_enumerate_every_overlap() {
        let mut a = WriteSet::default();
        a.touch_key(&n("accounts"), &Value::Int(1));
        a.touch_key(&n("accounts"), &Value::Int(2));
        a.touch_key(&n("orders"), &Value::Int(9));
        let mut b = WriteSet::default();
        b.touch_key(&n("accounts"), &Value::Int(1));
        b.touch_key(&n("accounts"), &Value::Int(2));
        b.touch_key(&n("orders"), &Value::Int(8));
        let keys = a.conflict_keys(&b);
        assert_eq!(
            keys,
            vec![
                ("accounts".to_string(), "1".to_string()),
                ("accounts".to_string(), "2".to_string()),
            ]
        );

        let mut e = WriteSet::default();
        e.touch_entry(&n("accounts"));
        assert_eq!(
            e.conflict_keys(&a),
            vec![("accounts".to_string(), "*".to_string())]
        );
        assert_eq!(
            a.conflict_keys(&e),
            vec![("accounts".to_string(), "*".to_string())],
            "entry overlap is symmetric and not duplicated"
        );
        assert!(a.conflict_keys(&WriteSet::default()).is_empty());
    }

    /// Validation's per-op test answers what the set-against-set test
    /// answers for the set those ops touch.
    #[test]
    fn overlaps_agrees_with_conflicts_with() {
        let ops = [
            Op::Delete {
                rel: n("accounts"),
                key: Value::Int(1),
            },
            Op::Drop { name: n("orders") },
        ];
        let theirs = WriteSet::from_ops(&ops);
        let mut key = WriteSet::default();
        key.touch_key(&n("accounts"), &Value::Int(1));
        let mut entry = WriteSet::default();
        entry.touch_entry(&n("accounts"));
        let mut by_entry = WriteSet::default();
        by_entry.touch_key(&n("orders"), &Value::Int(5));
        let mut other = WriteSet::default();
        other.touch_key(&n("accounts"), &Value::Int(2));
        for ours in [key, entry, by_entry, other] {
            let per_op = ops.iter().any(|op| ours.overlaps(op));
            assert_eq!(per_op, ours.conflicts_with(&theirs), "{ours:?}");
        }
    }

    /// Staging, the recorded op (so the WAL record) and a replay all hold
    /// the *same* tuple: nothing on the commit path deep-clones it.
    #[test]
    fn replay_shares_the_ops_tuple() {
        use fdm_core::RelationF;
        let store =
            crate::Store::new(DatabaseF::new("d").with_relation(RelationF::new("r", &["k"])));
        let mut txn = store.begin();
        txn.upsert(
            "r",
            Value::Int(1),
            TupleF::builder("t").attr("v", 1).build(),
        )
        .unwrap();
        let staged = txn.get("r", &Value::Int(1)).unwrap().unwrap();
        let (_, ops) = txn.into_parts();
        let Op::Upsert { tuple, .. } = &ops[0] else {
            panic!("an upsert was recorded");
        };
        assert!(Arc::ptr_eq(tuple, &staged), "staging shares the op's tuple");
        let replayed = apply_ops(&store.snapshot(), &ops, |_| {}).unwrap();
        let stored = replayed
            .relation("r")
            .unwrap()
            .lookup(&Value::Int(1))
            .unwrap();
        assert!(Arc::ptr_eq(tuple, &stored), "replay shares it too");
    }
}
