//! The ordered commit pipeline, pinned from outside the crate.
//!
//! Every write — `Transaction::commit`, `Store::run`, `Store::commit_batch`
//! — takes its turn in one commit sequencer that validates, installs,
//! logs and enqueues the WAL record in a single critical section, and the
//! WAL is written a group at a time by whichever committer closes the
//! group. Three things follow, and each has a test here:
//!
//! (a) **Order by construction.** Under any mix of committers, installed
//!     versions are gapless; the time-travel history, the commit log and
//!     the on-disk WAL records are strictly increasing; with the
//!     sequencer free, every version up to `Store::version()` is in the
//!     log (the invariant that replaced the old "unrecorded winner"
//!     state); the audit sum equals the acknowledged deltas; a dropped
//!     and reopened store equals the final snapshot.
//! (b) **No starvation.** A 16-member `commit_batch` beside a thread
//!     committing singles in a tight loop lands on its first attempt,
//!     having been overtaken by only a handful of singles (benchmark
//!     finding 6: it used to lose the install race round after round and
//!     sleep an exponential backoff each time). Counted, not timed.
//! (c) **Group fsync, no false ack.** Under `SyncPolicy::Always` with
//!     several committers there are at most as many fsyncs as commits and
//!     every acknowledged version is already durable; when the closing
//!     committer's write fails, every commit of its group fails with
//!     `FdmError::Durability` and so does everything after it.
//!
//! `THREADS` sets the committer count (CI pins 1 and 4 in `txn stress`).

use fdm_core::{DatabaseF, FdmError, RelationF, TupleF, Value};
use fdm_tests::canonical_rows;
use fdm_txn::{
    BatchPolicy, CommitPolicy, CrashPlan, DurabilityConfig, Store, StoreConfig, SyncPolicy,
    Transaction, Version,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn threads() -> usize {
    std::env::var("THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or(4)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdm-pipeline-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `keys` accounts with balance 0.
fn ledger(keys: i64) -> DatabaseF {
    let mut acct = RelationF::new("acct", &["id"]);
    for k in 0..keys {
        acct = acct
            .insert(Value::Int(k), TupleF::builder("a").attr("bal", 0).build())
            .unwrap();
    }
    DatabaseF::new("ledger").with_relation(acct)
}

/// An in-memory store, or a durable one under `sync` (explicit
/// checkpoints only, so the whole history stays in the WAL).
fn store_in(dir: Option<&Path>, sync: SyncPolicy, keys: i64) -> Arc<Store> {
    match dir {
        None => Store::new(ledger(keys)),
        Some(dir) => Store::create(
            ledger(keys),
            StoreConfig {
                durability: Some(
                    DurabilityConfig::new(dir)
                        .with_sync(sync)
                        .with_checkpoint_every(None),
                ),
                ..StoreConfig::default()
            },
        )
        .unwrap(),
    }
}

fn add(txn: &mut Transaction, key: i64, delta: i64) -> fdm_core::Result<()> {
    txn.modify_attr("acct", &Value::Int(key), "bal", |v| {
        v.add(&Value::Int(delta))
    })
}

fn staged(store: &Arc<Store>, key: i64, delta: i64) -> Transaction {
    let mut txn = store.begin();
    add(&mut txn, key, delta).unwrap();
    txn
}

fn audit(db: &DatabaseF) -> i64 {
    db.relation("acct")
        .unwrap()
        .tuples()
        .unwrap()
        .iter()
        .map(|(_, t)| t.get("bal").unwrap().as_int("bal").unwrap())
        .sum()
}

/// Raises the flag when dropped — also when the test is unwinding, so a
/// failed assertion never leaves a scoped helper thread spinning.
struct Raise<'a>(&'a AtomicBool);

impl Drop for Raise<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

fn is_consecutive(versions: &[Version]) -> bool {
    versions.windows(2).all(|w| w[1] == w[0] + 1)
}

/// The versions of every WAL record under `dir`, in on-disk order
/// (segments by name; format in `fdm-durability`'s `wal` module docs).
fn wal_versions(dir: &Path) -> Vec<Version> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segments.sort();
    let mut versions = Vec::new();
    for seg in segments {
        let bytes = std::fs::read(seg).unwrap();
        let mut at = 8; // the segment magic
        while at < bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            versions.push(u64::from_le_bytes(
                bytes[at + 8..at + 16].try_into().unwrap(),
            ));
            at += 8 + len;
        }
    }
    versions
}

/// (a) for one store flavour.
fn mixed_committers_keep_everything_in_order(tag: &str, durable: Option<SyncPolicy>) {
    const ROUNDS: usize = 48;
    let n = threads() as i64;
    let lanes = 8 * n; // key k belongs to thread k % n
    let (hot, hot2) = (lanes, lanes + 1); // written by everyone
    let dir = durable.map(|_| scratch(tag));
    let store = store_in(
        dir.as_deref(),
        durable.unwrap_or(SyncPolicy::Always),
        lanes + 2,
    );
    let policy = CommitPolicy::default().with_max_attempts(256);
    let batch_policy = BatchPolicy::default().with_commit(policy.clone());
    let done = AtomicBool::new(false);

    let (acked_sum, acked_versions) = std::thread::scope(|s| {
        let checker = s.spawn(|| loop {
            // read the flag first: the last pass checks the final state
            let last_pass = done.load(Ordering::SeqCst);
            {
                let seen = store.version();
                let log = store.log_versions();
                assert!(is_consecutive(&log), "commit log has a gap: {log:?}");
                assert!(
                    seen == 0 || log.last().is_some_and(|newest| *newest >= seen),
                    "v{seen} was installed but is not in the commit log ({:?})",
                    log.last()
                );
                let history = store.history().versions();
                assert!(
                    is_consecutive(&history),
                    "history out of order: {history:?}"
                );
            }
            if last_pass {
                break;
            }
        });
        let workers: Vec<_> = (0..n)
            .map(|t| {
                let (store, policy, batch_policy) = (&store, &policy, &batch_policy);
                s.spawn(move || {
                    let mut sum = 0i64;
                    let mut versions = BTreeSet::new();
                    let mut ack = |delta: i64, version: Version| {
                        sum += delta;
                        versions.insert(version);
                    };
                    for i in 0..ROUNDS as i64 {
                        let own = |j: i64| t + n * ((i + j) % 8);
                        let delta = 1 + (i + t) % 7;
                        match i % 4 {
                            // a plain commit on a key nobody else writes
                            0 => {
                                let v = staged(store, own(0), delta).commit().unwrap();
                                ack(delta, v);
                            }
                            // a closure-retried commit on the shared key
                            1 => {
                                let ((), o) =
                                    store.run_with(policy, |txn| add(txn, hot, delta)).unwrap();
                                ack(delta, o.version);
                            }
                            // a plain commit on the shared key: lands, or
                            // loses first-committer-wins for good
                            2 => match staged(store, hot, delta).commit_with(policy) {
                                Ok(o) => {
                                    assert_eq!(o.attempts, 1);
                                    ack(delta, o.version);
                                }
                                Err(e) => {
                                    assert!(
                                        matches!(e, FdmError::TransactionConflict { .. }),
                                        "{e:?}"
                                    )
                                }
                            },
                            // a batch: three own keys and one shared
                            _ => {
                                let txns = vec![
                                    staged(store, own(0), delta),
                                    staged(store, own(1), delta),
                                    staged(store, hot2, delta),
                                    staged(store, own(2), delta),
                                ];
                                for (j, o) in store
                                    .commit_batch(txns, batch_policy)
                                    .into_iter()
                                    .enumerate()
                                {
                                    match o {
                                        Ok(o) => ack(delta, o.version),
                                        Err(e) => assert!(
                                            j == 2
                                                && matches!(
                                                    e,
                                                    FdmError::TransactionConflict { .. }
                                                ),
                                            "member {j}: {e:?}"
                                        ),
                                    }
                                }
                            }
                        }
                    }
                    (sum, versions)
                })
            })
            .collect();
        let mut sum = 0i64;
        let mut versions = BTreeSet::new();
        let finished = Raise(&done);
        for w in workers {
            let (s, v) = w.join().unwrap();
            sum += s;
            versions.extend(v);
        }
        drop(finished);
        checker.join().unwrap();
        (sum, versions)
    });

    let head = store.version();
    let all: Vec<Version> = (1..=head).collect();
    assert_eq!(
        acked_versions.into_iter().collect::<Vec<_>>(),
        all,
        "{tag}: installed versions are gapless and each was acknowledged"
    );
    assert_eq!(store.log_versions(), all, "{tag}: commit log");
    assert_eq!(
        store.history().versions(),
        (0..=head).collect::<Vec<_>>(),
        "{tag}: history"
    );
    let last = store.snapshot();
    assert_eq!(
        audit(&last),
        acked_sum,
        "{tag}: audit == acknowledged deltas"
    );

    if let Some(dir) = dir {
        // no sync_wal, no shutdown protocol: dropping the store closes the WAL
        drop(store);
        assert_eq!(
            wal_versions(&dir),
            all,
            "{tag}: WAL records in version order"
        );
        let back = Store::open(&dir).unwrap();
        assert_eq!(back.version(), head, "{tag}: reopened at the head");
        assert_eq!(
            canonical_rows(&back.snapshot().relation("acct").unwrap()),
            canonical_rows(&last.relation("acct").unwrap()),
            "{tag}: reopened store equals the final snapshot"
        );
        drop(back);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn order_holds_in_memory() {
    mixed_committers_keep_everything_in_order("memory", None);
}

#[test]
fn order_holds_under_sync_always() {
    mixed_committers_keep_everything_in_order("always", Some(SyncPolicy::Always));
}

#[test]
fn order_holds_under_group_commit() {
    mixed_committers_keep_everything_in_order("every4", Some(SyncPolicy::EveryN(4)));
}

#[test]
fn order_holds_under_sync_never() {
    mixed_committers_keep_everything_in_order("never", Some(SyncPolicy::Never));
}

/// The WAL's close (it used to have none): a `Never` store is dropped
/// without `sync_wal` and every commit is still there on reopen.
#[test]
fn dropping_a_never_store_keeps_every_commit() {
    let dir = scratch("drop-never");
    let store = store_in(Some(&dir), SyncPolicy::Never, 4);
    for i in 0..100 {
        store.run(|txn| add(txn, i % 4, 1)).unwrap();
    }
    assert_eq!(store.durable_version(), Some(0), "nothing fsynced yet");
    drop(store);
    let back = Store::open(&dir).unwrap();
    assert_eq!(back.version(), 100);
    assert_eq!(audit(&back.snapshot()), 100);
    drop(back);
    let _ = std::fs::remove_dir_all(&dir);
}

/// (b) Benchmark finding 6, by count: how many single commits overtake a
/// 16-member group between the moment it is submitted and the version it
/// installs as. With the sequencer that is the singles that land while
/// the group is being sealed plus whoever wins the next `try_lock` rounds
/// (≈ 10–25 here). It used to replay its 64 writes outside any lock, lose
/// the install race to one of the single commits that fit into that
/// window, sleep its backoff and start over — `attempts` above 1, or
/// `TransactionRetriesExhausted` outright, in most runs at the parent
/// commit. The median over the rounds shrugs off a preempted round on a
/// busy runner.
#[test]
fn a_group_commit_is_not_starved_by_single_committers() {
    const ROUNDS: usize = 21;
    const MEMBERS: i64 = 16;
    const WRITES_PER_MEMBER: i64 = 4;
    const KEYS: i64 = 4096;
    const MAX_MEDIAN_OVERTAKES: u64 = 128;
    // Three, not one: a lone helper thread can sit on the group's own CPU
    // for the whole test (measured on the 2-vCPU build VM: zero overtakes
    // in every round, at the parent commit too); with more busy threads
    // than that CPU can hold, some run truly beside the group.
    const SINGLE_COMMITTERS: i64 = 3;
    // a history no preempted round can fall out of: validation must
    // never answer "snapshot older than the retained history" here
    let store = Store::with_config(
        ledger(KEYS),
        StoreConfig {
            history_capacity: 1 << 20,
            ..StoreConfig::default()
        },
    );
    let singles = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let mut overtakes = std::thread::scope(|s| {
        for t in 0..SINGLE_COMMITTERS {
            let (store, done, singles) = (&store, &done, &singles);
            s.spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    store.run(|txn| add(txn, KEYS - 1 - t, 1)).unwrap();
                    singles.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        let _finished = Raise(&done);
        let mut overtakes = Vec::with_capacity(ROUNDS);
        for round in 0..ROUNDS as u64 {
            // only count rounds the single committers are running in
            let before = singles.load(Ordering::SeqCst);
            while singles.load(Ordering::SeqCst) < before + 3 {
                std::thread::yield_now();
            }
            let txns: Vec<Transaction> = (0..MEMBERS)
                .map(|m| {
                    let mut txn = store.begin();
                    for w in 0..WRITES_PER_MEMBER {
                        add(&mut txn, m * WRITES_PER_MEMBER + w, 1).unwrap();
                    }
                    txn
                })
                .collect();
            let submitted_at = store.version();
            let outcomes = store.commit_batch(txns, &BatchPolicy::default());
            let mut installed_as = 0;
            for o in outcomes {
                let o = o.unwrap_or_else(|e| panic!("round {round}: {e:?}"));
                assert_eq!(o.attempts, 1, "round {round}: landed first try");
                assert!(o.conflicts.is_empty(), "round {round}: {:?}", o.conflicts);
                installed_as = o.version;
            }
            overtakes.push(installed_as - submitted_at - 1);
        }
        overtakes
    });
    overtakes.sort_unstable();
    let median = overtakes[ROUNDS / 2];
    assert!(
        median < MAX_MEDIAN_OVERTAKES,
        "a 16-member group was overtaken by {median} single commits (median of {overtakes:?})"
    );
    assert_eq!(
        audit(&store.snapshot()),
        ROUNDS as i64 * MEMBERS * WRITES_PER_MEMBER + singles.load(Ordering::SeqCst) as i64
    );
}

/// (c), the happy half: fsyncs are shared and nothing is acknowledged
/// early. `CrashPlan::drop_fsync` turns the plan's fsync hook into a
/// counter of every fsync the WAL asks for.
#[test]
fn always_shares_fsyncs_and_never_acknowledges_early() {
    const PER_THREAD: u64 = 40;
    let n = threads() as i64;
    let dir = scratch("group-fsync");
    let store = store_in(Some(&dir), SyncPolicy::Always, n);
    let plan = CrashPlan::new();
    plan.drop_fsync();
    store.install_crash_plan(Arc::clone(&plan));
    std::thread::scope(|s| {
        for t in 0..n {
            let store = &store;
            s.spawn(move || {
                for _ in 0..PER_THREAD {
                    let ((), o) = store.run(|txn| add(txn, t, 1)).unwrap();
                    let durable = store.durable_version().unwrap();
                    assert!(
                        durable >= o.version,
                        "v{} acknowledged with the durable watermark at v{durable}",
                        o.version
                    );
                }
            });
        }
    });
    let commits = n as u64 * PER_THREAD;
    assert_eq!(store.version(), commits);
    assert_eq!(store.durable_version(), Some(commits));
    let fsyncs = plan.fsyncs_dropped.load(Ordering::SeqCst) as u64;
    assert!(
        (1..=commits).contains(&fsyncs),
        "{fsyncs} fsyncs for {commits} commits"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// (c), the failing half: the committer that closes a group meets a torn
/// write. Every commit it was writing for fails, every later one fails,
/// memory stays ahead of the log, and recovery keeps every acknowledged
/// commit.
#[test]
fn a_failed_group_write_fails_its_whole_group_and_everything_after() {
    let n = threads() as i64;
    let dir = scratch("group-failure");
    let store = store_in(Some(&dir), SyncPolicy::Always, n);
    let plan = CrashPlan::new();
    store.install_crash_plan(Arc::clone(&plan));
    store.run(|txn| add(txn, 0, 1)).unwrap();
    let record = plan.written_bytes();
    plan.cut_write_at(record * 12 + record / 2); // dies inside the 13th record

    let acked: BTreeSet<Version> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..n)
            .map(|t| {
                let store = &store;
                s.spawn(move || {
                    let mut acked = BTreeSet::new();
                    let mut failed = false;
                    for _ in 0..40 {
                        match store.run(|txn| add(txn, t, 1)) {
                            Ok(((), o)) => {
                                assert!(!failed, "v{} acknowledged after a failure", o.version);
                                acked.insert(o.version);
                            }
                            Err(e) => {
                                assert!(matches!(e, FdmError::Durability { .. }), "{e:?}");
                                failed = true;
                            }
                        }
                    }
                    assert!(failed, "every committer ran into the dead WAL");
                    acked
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    assert_eq!(plan.cuts_fired.load(Ordering::SeqCst), 1);
    // twelve whole records reached the file; those that shared the torn
    // group's write were never fsynced as far as the writer knows
    let durable = store.durable_version().unwrap();
    assert!((1..=12).contains(&durable), "durable watermark v{durable}");
    assert_eq!(
        acked.into_iter().collect::<Vec<_>>(),
        (2..=durable).collect::<Vec<_>>(),
        "exactly the commits an fsync covered were acknowledged"
    );
    let head = store.version();
    assert!(head > durable, "memory ahead of the log, as after a crash");
    // the dead writer must not come back to life on drop
    drop(store);
    let back = Store::open(&dir).unwrap();
    let recovered = back.version();
    assert!(
        (durable..=12).contains(&recovered),
        "recovery keeps every acknowledged commit (v{durable}) and only whole records: v{recovered}"
    );
    assert_eq!(
        audit(&back.snapshot()),
        recovered as i64,
        "a committed prefix"
    );
    drop(back);
    let _ = std::fs::remove_dir_all(&dir);
}
