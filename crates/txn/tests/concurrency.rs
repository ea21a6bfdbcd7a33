//! Concurrency stress tests for snapshot isolation: many threads, real
//! interleavings, invariants checked at the end.

use fdm_core::{DatabaseF, FdmError, RelationF, TupleF, Value};
use fdm_txn::Store;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn bank(n_accounts: i64, initial: i64) -> Arc<Store> {
    let mut accounts = RelationF::new("accounts", &["id"]);
    for id in 0..n_accounts {
        accounts = accounts
            .insert(
                Value::Int(id),
                TupleF::builder("a").attr("balance", initial).build(),
            )
            .unwrap();
    }
    Store::new(DatabaseF::new("bank").with_relation(accounts))
}

fn total(store: &Store) -> i64 {
    store
        .snapshot()
        .relation("accounts")
        .unwrap()
        .tuples()
        .unwrap()
        .iter()
        .map(|(_, t)| t.get("balance").unwrap().as_int("b").unwrap())
        .sum()
}

#[test]
fn concurrent_transfers_conserve_money() {
    const ACCOUNTS: i64 = 16;
    const INITIAL: i64 = 1_000;
    const THREADS: usize = 8;
    const TRANSFERS_PER_THREAD: usize = 50;

    let store = bank(ACCOUNTS, INITIAL);
    let committed = Arc::new(AtomicUsize::new(0));
    let conflicted = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let store = Arc::clone(&store);
            let committed = Arc::clone(&committed);
            let conflicted = Arc::clone(&conflicted);
            s.spawn(move || {
                // deterministic pseudo-random account pairs per thread
                let mut x = (tid as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                let mut next = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                for _ in 0..TRANSFERS_PER_THREAD {
                    let from = (next() % ACCOUNTS as u64) as i64;
                    let mut to = (next() % ACCOUNTS as u64) as i64;
                    if to == from {
                        to = (to + 1) % ACCOUNTS;
                    }
                    let amount = 1 + (next() % 10) as i64;
                    let mut txn = store.begin();
                    let r = txn
                        .modify_attr("accounts", &Value::Int(from), "balance", |v| {
                            v.sub(&Value::Int(amount))
                        })
                        .and_then(|_| {
                            txn.modify_attr("accounts", &Value::Int(to), "balance", |v| {
                                v.add(&Value::Int(amount))
                            })
                        });
                    assert!(r.is_ok(), "statement errors should not happen: {r:?}");
                    match txn.commit() {
                        Ok(_) => {
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        // a genuine first-committer-wins loss: nothing
                        // was installed
                        Err(FdmError::TransactionConflict { .. }) => {
                            conflicted.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected commit error: {e}"),
                    }
                }
            });
        }
    });

    let committed = committed.load(Ordering::Relaxed);
    let conflicted = conflicted.load(Ordering::Relaxed);
    assert_eq!(committed + conflicted, THREADS * TRANSFERS_PER_THREAD);
    assert!(committed > 0, "some transfers must succeed");
    // The invariant: no lost updates, no partial transfers.
    assert_eq!(total(&store), ACCOUNTS * INITIAL, "money conserved exactly");
    assert_eq!(
        store.version() as usize,
        committed,
        "one version per commit"
    );
}

#[test]
fn concurrent_disjoint_inserts_all_commit() {
    let store = bank(1, 0);
    const THREADS: usize = 8;
    const PER_THREAD: usize = 25;
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let store = Arc::clone(&store);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    // explicit disjoint keys per thread: no conflicts
                    let key = Value::Int(1000 + (tid * PER_THREAD + i) as i64);
                    let mut attempt = 0;
                    loop {
                        let mut txn = store.begin();
                        txn.upsert(
                            "accounts",
                            key.clone(),
                            TupleF::builder("a").attr("balance", 1).build(),
                        )
                        .unwrap();
                        match txn.commit() {
                            Ok(_) => break,
                            Err(FdmError::TransactionConflict { .. })
                            | Err(FdmError::TransactionRetriesExhausted { .. }) => {
                                attempt += 1;
                                assert!(attempt < 100, "disjoint keys must eventually merge");
                            }
                            Err(e) => panic!("{e}"),
                        }
                    }
                }
            });
        }
    });
    assert_eq!(
        store.snapshot().relation("accounts").unwrap().len(),
        1 + THREADS * PER_THREAD
    );
}

#[test]
fn readers_never_block_and_see_consistent_states() {
    let store = bank(2, 100);
    let stop = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        // writer: transfers between the two accounts
        {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                for _ in 0..200 {
                    let _ = store.autocommit(10, |txn| {
                        txn.modify_attr("accounts", &Value::Int(0), "balance", |v| {
                            v.sub(&Value::Int(1))
                        })?;
                        txn.modify_attr("accounts", &Value::Int(1), "balance", |v| {
                            v.add(&Value::Int(1))
                        })?;
                        Ok(())
                    });
                }
                stop.store(1, Ordering::Release);
            });
        }
        // readers: every snapshot must show the invariant intact
        for _ in 0..4 {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while stop.load(Ordering::Acquire) == 0 {
                    let db = store.snapshot();
                    let rel = db.relation("accounts").unwrap();
                    let a = rel
                        .lookup(&Value::Int(0))
                        .unwrap()
                        .get("balance")
                        .unwrap()
                        .as_int("b")
                        .unwrap();
                    let b = rel
                        .lookup(&Value::Int(1))
                        .unwrap()
                        .get("balance")
                        .unwrap()
                        .as_int("b")
                        .unwrap();
                    assert_eq!(a + b, 200, "no torn reads under snapshot isolation");
                }
            });
        }
    });
    assert_eq!(total(&store), 200);
}
