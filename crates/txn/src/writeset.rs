//! Write sets and recorded operations for snapshot-isolation commits.

use fdm_core::{DatabaseF, FnValue, Name, Result, TupleF, Value};
use fdm_durability::WalOp;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// What a transaction wrote: per-relation keys, or whole entries.
///
/// Two write sets **conflict** when they touch the same `(relation, key)`
/// pair, or one of them replaced a whole entry the other touched at all.
#[derive(Debug, Default, Clone)]
pub struct WriteSet {
    /// Point writes: per relation, the keys written.
    keys: BTreeMap<Name, BTreeSet<Value>>,
    /// Whole-entry replacements (`DB(name) := f`).
    entries: BTreeSet<Name>,
}

impl WriteSet {
    /// The write set a list of recorded operations touches — what a
    /// recovered WAL record and a conflicting commit's record report.
    pub fn from_ops(ops: &[Op]) -> WriteSet {
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
    pub fn touch_key(&mut self, rel: &Name, key: &Value) {
        self.keys
            .entry(rel.clone())
            .or_default()
            .insert(key.clone());
    }

    /// Records a whole-entry replacement.
    pub fn touch_entry(&mut self, name: &Name) {
        self.entries.insert(name.clone());
    }

    /// `true` if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty() && self.entries.is_empty()
    }

    /// Number of point writes plus entry replacements.
    pub fn len(&self) -> usize {
        self.keys.values().map(BTreeSet::len).sum::<usize>() + self.entries.len()
    }

    /// `true` if `op` writes what this set wrote: the same key, or an
    /// entry one side replaced whole — the test validation runs against
    /// each retained commit's ops, by lookup, with nothing cloned.
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

    /// Write-write conflict test.
    pub fn conflicts_with(&self, other: &WriteSet) -> bool {
        self.entry_overlaps(other).next().is_some() || self.key_overlaps(other).next().is_some()
    }

    /// Every conflicting pair with `other`, in display form, for the
    /// structured `keys` field of `FdmError::TransactionConflict`:
    /// key-granular conflicts as `(relation, key)`, whole-entry conflicts
    /// as `(entry, "*")`.
    pub fn conflict_keys(&self, other: &WriteSet) -> Vec<(String, String)> {
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
    pub fn describe_overlap(&self, other: &WriteSet) -> String {
        if let Some(e) = self.entry_overlaps(other).next() {
            return format!("entry '{e}'");
        }
        match self.key_overlaps(other).next() {
            Some((rel, k)) => format!("{rel}[{k}]"),
            None => "(no overlap)".to_string(),
        }
    }
}

/// A recorded change, replayable onto a newer committed root when the
/// write sets are disjoint (the snapshot-isolation merge path).
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

/// Applies recorded operations onto a committed root, in order — the
/// single replay path shared by the snapshot-isolation merge (disjoint
/// writers replaying onto a newer root), crash recovery (replaying WAL
/// records onto a checkpoint) and time travel (applying undos).
pub(crate) fn apply_ops(base: &DatabaseF, ops: &[Op]) -> Result<DatabaseF> {
    replay(base, ops, |_| {})
}

/// [`apply_ops`], also handing back the tuple each op replaced in the
/// stored map it wrote (`None` for an insert and for an entry op) — what
/// the commit path builds a replayed group's record from.
pub(crate) fn apply_ops_replacing(
    base: &DatabaseF,
    ops: &[Op],
) -> Result<(DatabaseF, Vec<Option<Arc<TupleF>>>)> {
    let mut replaced = Vec::with_capacity(ops.len());
    let db = replay(base, ops, |old| replaced.push(old))?;
    Ok((db, replaced))
}

fn replay(
    base: &DatabaseF,
    ops: &[Op],
    mut replaced: impl FnMut(Option<Arc<TupleF>>),
) -> Result<DatabaseF> {
    let mut db = base.clone();
    for op in ops {
        let (next, old) = match op {
            Op::Upsert { rel, key, tuple } => {
                let (r, old) = db
                    .relation_ref(rel)?
                    .upsert_replacing(key.clone(), Arc::clone(tuple))?;
                (db.with_entry(rel, FnValue::from(r)), old)
            }
            Op::Delete { rel, key } => {
                let (r, old) = db.relation_ref(rel)?.delete_replacing(key)?;
                (db.with_entry(rel, FnValue::from(r)), old)
            }
            Op::Assign { name, value } => (db.with_entry(name.as_ref(), value.clone()), None),
            Op::Drop { name } => (db.without_entry(name)?, None),
        };
        db = next;
        replaced(old);
    }
    Ok(db)
}

// The WAL stores its own op type (`fdm-durability` cannot depend on this
// crate), mirroring [`Op`] field for field; the conversions are lossless
// in both directions.

impl From<&Op> for WalOp {
    fn from(op: &Op) -> WalOp {
        match op {
            Op::Upsert { rel, key, tuple } => WalOp::Upsert {
                rel: rel.clone(),
                key: key.clone(),
                tuple: Arc::clone(tuple),
            },
            Op::Delete { rel, key } => WalOp::Delete {
                rel: rel.clone(),
                key: key.clone(),
            },
            Op::Assign { name, value } => WalOp::Assign {
                name: name.clone(),
                value: value.clone(),
            },
            Op::Drop { name } => WalOp::Drop { name: name.clone() },
        }
    }
}

impl From<WalOp> for Op {
    fn from(op: WalOp) -> Op {
        match op {
            WalOp::Upsert { rel, key, tuple } => Op::Upsert { rel, key, tuple },
            WalOp::Delete { rel, key } => Op::Delete { rel, key },
            WalOp::Assign { name, value } => Op::Assign { name, value },
            WalOp::Drop { name } => Op::Drop { name },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn emptiness() {
        let a = WriteSet::default();
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
        assert!(!a.conflicts_with(&a.clone()));
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
        let (_, _, ops) = txn.into_parts();
        let Op::Upsert { tuple, .. } = &ops[0] else {
            panic!("an upsert was recorded");
        };
        assert!(Arc::ptr_eq(tuple, &staged), "staging shares the op's tuple");
        let replayed = apply_ops(&store.snapshot(), &ops).unwrap();
        let stored = replayed
            .relation("r")
            .unwrap()
            .lookup(&Value::Int(1))
            .unwrap();
        assert!(Arc::ptr_eq(tuple, &stored), "replay shares it too");
    }
}
