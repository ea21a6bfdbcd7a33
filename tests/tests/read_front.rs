//! The read front, pinned from outside the crate.
//!
//! `Store::read_point` borrows the committed root for the length of one
//! tree descent instead of snapshotting it, and the root keeps one copy of
//! the snapshot per *lane* so that readers on different threads write no
//! memory in common; a commit switches every lane while holding all of
//! them. Four things must survive that, and each has a test here:
//!
//! (a) **Real-time order across threads.** Once `commit` has returned `v`
//!     on one thread and that thread has signalled, any other thread's
//!     point read reports a version `>= v` and the value written; and no
//!     thread observes a version lower than one that it — or a thread it
//!     synchronised with — has already observed. An install that wrote
//!     the lanes one at a time would fail this.
//! (b) **A read is a read of its version.** The tuple
//!     `read_point_versioned` returned at version `v` beside a committer
//!     is `as_of(v)`'s, and so is what `snapshot_versioned` held.
//! (c) **No user code under the root.** A hybrid relation whose fallback
//!     waits for the next commit and then reads the same store, read in a
//!     loop beside a committer, finishes: the closure runs after the lane
//!     is released (a recursive read of a lane deadlocks as soon as a
//!     commit waits between the two).
//! (d) **Same answers.** `read_point` ≡ `snapshot().relation(rel)?
//!     .lookup(key)` for unique, multi, hybrid and computed bodies, a
//!     missing relation and an entry of the wrong kind.
//! (e) **Read-your-writes and never stale** on the retail store: a
//!     committer re-reading its key sees its own write at the head
//!     version, and under a racing writer that only grows a counter no
//!     read is older than its reported version's `as_of`, nor older than
//!     the reader's previous read.
//!
//! Orders and counts, never clocks. `THREADS` sets the reader count (CI
//! pins 1 and 4 in `txn stress`); (a), (b), (e) and the stored half of
//! (d) run on an in-memory and on a durable store — closure-valued bodies
//! cannot be checkpointed, so (c) and the rest of (d) are in-memory only.

use fdm_core::{DatabaseF, Domain, FdmError, FnValue, RelationF, TupleF, Value};
use fdm_txn::{DurabilityConfig, Store, StoreConfig, SyncPolicy, Version};
use fdm_workload::{commit_serve_write, retail_db, RetailConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

fn threads() -> usize {
    std::env::var("THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or(4)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdm-read-front-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const KEYS: i64 = 64;
/// Below the default history capacity, so every version a reader meets
/// is still there for `as_of`.
const COMMITS: u64 = 600;

fn row(n: i64) -> TupleF {
    TupleF::builder("r").attr("n", n).build()
}

/// `KEYS` rows `k ↦ {n: 0}` in `r`, and an index of them by `n`.
fn seed_db() -> DatabaseF {
    let mut r = RelationF::new("r", &["k"]);
    for k in 0..KEYS {
        r = r.insert(Value::Int(k), row(0)).unwrap();
    }
    let by_n = r.index_by("n").unwrap().renamed("by_n");
    DatabaseF::new("front")
        .with_relation(r)
        .with_relation(by_n)
        .with_entry("meta", FnValue::from(row(7)))
}

/// Runs `body` on an in-memory store and on a durable one.
fn on_both_stores(tag: &str, db: DatabaseF, body: impl Fn(&Arc<Store>)) {
    body(&Store::new(db.clone()));
    let dir = scratch(tag);
    let store = Store::create(
        db,
        StoreConfig {
            durability: Some(
                DurabilityConfig::new(&dir)
                    .with_sync(SyncPolicy::Never)
                    .with_checkpoint_every(None),
            ),
            ..StoreConfig::default()
        },
    )
    .unwrap();
    body(&store);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Raises the flag when dropped — also when the test is unwinding, so a
/// failed assertion never leaves a scoped helper thread spinning.
struct Raise<'a>(&'a AtomicBool);

impl Drop for Raise<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

fn n_of(t: &TupleF) -> i64 {
    t.get("n").unwrap().as_int("n").unwrap()
}

/// A looked-up tuple in comparable form.
fn data(t: Option<Arc<TupleF>>) -> Option<Value> {
    t.map(|t| t.data_key().unwrap())
}

/// (a) The committer writes `n = i` with its `i`-th commit, which — being
/// the only committer of a store that starts at version 0 — is version
/// `i`. `floor` is the happens-before edge: the committer raises it to
/// `v` after `commit` returned `v`, a reader raises it to what it just
/// observed, and every read must come out at or above the floor loaded
/// before it.
#[test]
fn reads_respect_real_time_order_across_threads() {
    on_both_stores("order", seed_db(), |store| {
        let floor = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let (store, floor, done) = (store, &floor, &done);
            s.spawn(move || {
                let _raise = Raise(done);
                for i in 1..=COMMITS {
                    let v = store.upsert_one("r", Value::Int(0), row(i as i64)).unwrap();
                    assert_eq!(v, i, "the only committer installs consecutive versions");
                    floor.fetch_max(v, Ordering::SeqCst);
                }
            });
            for _ in 0..threads() {
                s.spawn(move || {
                    let _raise = Raise(done);
                    let mut own: Version = 0;
                    while !done.load(Ordering::SeqCst) {
                        let before = floor.load(Ordering::SeqCst).max(own);
                        let (v, t) = store.read_point_versioned("r", &Value::Int(0)).unwrap();
                        assert!(v >= before, "read at v{v} after v{before} was observed");
                        assert_eq!(n_of(&t.unwrap()), v as i64, "the value written by v{v}");
                        let (sv, _) = store.snapshot_versioned();
                        assert!(sv >= v, "snapshot at v{sv} after a read at v{v}");
                        assert!(store.version() >= sv);
                        own = sv;
                        floor.fetch_max(sv, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(store.version(), COMMITS);
    });
}

/// (b) A committer rewrites random keys; readers note what they read at
/// which version, and every note is compared with the history's
/// `as_of(v)` once the committer is done — not on the spot: a commit puts
/// `v` into the history just *after* the root shows it (same sequencer
/// section), so an `as_of(v)` racing that step may still answer `v − 1`.
#[test]
fn a_read_at_version_v_is_as_of_v() {
    on_both_stores("as-of", seed_db(), |store| {
        let done = AtomicBool::new(false);
        let noted: Vec<(Version, i64, Option<Value>)> = std::thread::scope(|s| {
            let (store, done) = (store, &done);
            s.spawn(move || {
                let _raise = Raise(done);
                for i in 1..=COMMITS {
                    let key = (i.wrapping_mul(0x9E37_79B9) >> 7) as i64 % KEYS;
                    store
                        .upsert_one("r", Value::Int(key), row(i as i64))
                        .unwrap();
                }
            });
            let readers: Vec<_> = (0..threads())
                .map(|reader| {
                    s.spawn(move || {
                        let _raise = Raise(done);
                        let mut noted = Vec::new();
                        let mut k = reader as i64;
                        while !done.load(Ordering::SeqCst) {
                            k = (k + 7) % KEYS;
                            let key = Value::Int(k);
                            let (v, got) = store.read_point_versioned("r", &key).unwrap();
                            noted.push((v, k, data(got)));
                            let (sv, db) = store.snapshot_versioned();
                            assert!(sv >= v, "snapshot at v{sv} after a read at v{v}");
                            noted.push((sv, k, data(db.relation("r").unwrap().lookup(&key))));
                        }
                        noted
                    })
                })
                .collect();
            readers
                .into_iter()
                .flat_map(|h| h.join().expect("a reader panicked"))
                .collect()
        });
        let mut at: Option<(Version, Arc<RelationF>)> = None;
        for (v, k, got) in noted {
            if at.as_ref().is_none_or(|(cached, _)| *cached != v) {
                at = Some((v, store.as_of(v).unwrap().relation("r").unwrap()));
            }
            let then = at.as_ref().unwrap().1.lookup(&Value::Int(k));
            assert_eq!(got, data(then), "key {k} at v{v}");
        }
    });
}

/// `r` with every key outside it answered by `fallback`.
fn with_hybrid(
    db: &DatabaseF,
    fallback: impl Fn(&Value) -> fdm_core::Result<Value> + Send + Sync + 'static,
) -> DatabaseF {
    let hybrid = db
        .relation("r")
        .unwrap()
        .with_fallback(Domain::IntRange(0, 4 * KEYS), fallback)
        .unwrap()
        .renamed("hybrid");
    db.with_relation(hybrid)
}

/// (c) The fallback of `hybrid` reads the store it lives in — and, to put
/// a commit between the read that called it and its own, first waits for
/// the version to move. Were it called with the root lane held, the
/// committer could not install (it needs that lane) and the wait would
/// never end; called after release, every wait ends with the next commit.
#[test]
fn a_fallback_that_reads_the_store_does_not_deadlock() {
    let handle: Arc<OnceLock<Weak<Store>>> = Arc::new(OnceLock::new());
    let inner = Arc::clone(&handle);
    let db = with_hybrid(&seed_db(), move |key| {
        let store = inner
            .get()
            .and_then(Weak::upgrade)
            .expect("the store is up");
        let entered_at = store.version();
        while store.version() == entered_at {
            std::thread::yield_now();
        }
        let k = key.as_int("k")? % KEYS;
        let t = store.read_point("r", &Value::Int(k))?.expect("r is dense");
        Ok(Value::Fn(FnValue::from(row(n_of(&t)))))
    });
    let store = Store::new(db);
    handle.set(Arc::downgrade(&store)).unwrap();

    let (tx, rx) = mpsc::channel();
    let done = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    {
        let (store, done) = (Arc::clone(&store), Arc::clone(&done));
        handles.push(std::thread::spawn(move || {
            let mut i = 0;
            while !done.load(Ordering::SeqCst) {
                i += 1;
                store.upsert_one("r", Value::Int(i % KEYS), row(i)).unwrap();
            }
        }));
    }
    for reader in 0..threads() {
        let (store, tx) = (Arc::clone(&store), tx.clone());
        handles.push(std::thread::spawn(move || {
            for i in 0..200i64 {
                // outside `r`'s stored keys: always the fallback
                let key = Value::Int(KEYS + (i + reader as i64) % (3 * KEYS));
                let t = store.read_point("hybrid", &key).unwrap();
                assert!(t.is_some(), "the fallback answers {key}");
            }
            tx.send(()).unwrap();
        }));
    }
    let finished = (0..threads()).all(|_| rx.recv_timeout(Duration::from_secs(30)).is_ok());
    done.store(true, Ordering::SeqCst);
    assert!(
        finished,
        "a fallback reading its own store ran with the root lane held"
    );
    for h in handles {
        h.join().unwrap();
    }
}

/// What both read paths answer, in comparable form.
fn answer(got: fdm_core::Result<Option<Arc<TupleF>>>) -> Result<Option<Value>, String> {
    got.map(data).map_err(|e| format!("{e:?}"))
}

fn assert_same_answers(store: &Arc<Store>, rels: &[&str]) {
    for rel in rels {
        for k in -2..(5 * KEYS) {
            let key = Value::Int(k);
            let served = answer(store.read_point(rel, &key));
            let naive = answer(store.snapshot().relation(rel).map(|r| r.lookup(&key)));
            assert_eq!(served, naive, "{rel}({k})");
        }
    }
}

/// (d) Stored bodies and the two errors, in memory and durable, before
/// and after a commit.
#[test]
fn read_point_equals_the_snapshot_lookup_on_stored_bodies() {
    on_both_stores("same-stored", seed_db(), |store| {
        let rels = ["r", "by_n", "nope", "meta"];
        assert_same_answers(store, &rels);
        assert!(matches!(
            store.read_point("nope", &Value::Int(0)),
            Err(FdmError::NoSuchRelation { .. })
        ));
        assert!(matches!(
            store.read_point("meta", &Value::Int(0)),
            Err(FdmError::WrongFunctionKind { .. })
        ));
        let mut txn = store.begin();
        txn.upsert("r", Value::Int(3), row(33)).unwrap();
        txn.delete("r", &Value::Int(4)).unwrap();
        txn.commit().unwrap();
        assert_same_answers(store, &rels);
        assert_eq!(
            n_of(&store.read_point("r", &Value::Int(3)).unwrap().unwrap()),
            33
        );
        assert!(store.read_point("r", &Value::Int(4)).unwrap().is_none());
    });
}

/// (d) Closure-valued bodies: stored hit, fallback hit, outside the
/// domain, and a fallback that fails.
#[test]
fn read_point_equals_the_snapshot_lookup_on_computed_bodies() {
    let squares = RelationF::computed("squares", &["n"], Domain::IntRange(0, 2 * KEYS), |k| {
        let n = k.as_int("n")?;
        if n % 5 == 4 {
            return Err(FdmError::Other(format!("no square for {n}")));
        }
        Ok(Value::Fn(FnValue::from(row(n * n))))
    });
    let db = with_hybrid(&seed_db(), |k| {
        Ok(Value::Fn(FnValue::from(row(-k.as_int("k")?))))
    })
    .with_relation(squares);
    let store = Store::new(db);
    assert_same_answers(&store, &["hybrid", "squares"]);
    let at = |rel: &str, k: i64| store.read_point(rel, &Value::Int(k)).unwrap();
    assert_eq!(n_of(&at("hybrid", 1).unwrap()), 0, "stored wins");
    assert_eq!(n_of(&at("hybrid", KEYS + 1).unwrap()), -(KEYS + 1));
    assert!(at("hybrid", 4 * KEYS + 1).is_none(), "outside the domain");
    assert_eq!(n_of(&at("squares", 3).unwrap()), 9);
    assert!(at("squares", 4).is_none(), "a failing closure is undefined");
}

/// The retail database with 100 customers, each carrying a `credit`.
fn retail() -> DatabaseF {
    retail_db(&RetailConfig {
        customers: 100,
        ..RetailConfig::small()
    })
}

fn credit_of(t: Option<Arc<TupleF>>) -> i64 {
    t.expect("dense cids")
        .get("credit")
        .and_then(|v| v.as_int("credit"))
        .expect("credit is an int")
}

/// (e) Ten commits to one key, each read straight back.
#[test]
fn a_committer_reads_its_own_write_back() {
    on_both_stores("own-write", retail(), |store| {
        let key = Value::Int(7);
        let before = credit_of(store.read_point("customers", &key).unwrap());
        for round in 1..=10 {
            commit_serve_write(store, 7, 5);
            let (v, after) = store.read_point_versioned("customers", &key).unwrap();
            assert_eq!(credit_of(after), before + 5 * round, "round {round}");
            assert_eq!(v, store.version(), "quiescent store: read at head");
        }
    });
}

/// (e) One writer adds 1 to customer 1's credit 300 times while readers
/// read it: every read is at least its version's `as_of` value (which
/// may still answer `v − 1`, see (b)) and never below the previous read.
#[test]
fn a_racing_writer_never_yields_a_stale_read() {
    on_both_stores("racing-writer", retail(), |store| {
        let key = Value::Int(1);
        let base = credit_of(store.read_point("customers", &key).unwrap());
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let (store, done, key) = (store, &done, &key);
            s.spawn(move || {
                let _raise = Raise(done);
                for _ in 0..300 {
                    commit_serve_write(store, 1, 1);
                }
            });
            for _ in 0..threads() {
                s.spawn(move || {
                    let _raise = Raise(done);
                    let mut last = base;
                    while !done.load(Ordering::SeqCst) {
                        let (v, t) = store.read_point_versioned("customers", key).unwrap();
                        let got = credit_of(t);
                        let then = store.as_of(v).unwrap().relation("customers").unwrap();
                        let floor = credit_of(then.lookup(key));
                        assert!(got >= floor, "read ({got}) older than v{v} ({floor})");
                        assert!(got >= last, "reads went backwards: {got} after {last}");
                        last = got;
                    }
                });
            }
        });
        let end = credit_of(store.read_point("customers", &key).unwrap());
        assert_eq!(end, base + 300, "no lost updates beside the readers");
    });
}
