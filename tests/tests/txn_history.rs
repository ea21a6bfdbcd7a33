//! Time-travel history: replay round-trips, compaction windows, a
//! property test that interleaved commit logs always replay to the live
//! root, a differential property test that `as_of` rebuilds every
//! retained version from the undos the history keeps, and byte counts
//! of what one retained version keeps live and of what a view that is
//! never refreshed adds per commit.
//!
//! CI runs this suite at `PROPTEST_CASES=512`.

use fdm_core::{Constraint, DatabaseF, Domain, FdmError, FnValue, RelationBuilder, RelationF};
use fdm_core::{TupleF, Value};
use fdm_expr::Params;
use fdm_fql::{db_upsert, difference, Query};
use fdm_tests::canonical_rows;
use fdm_txn::Version;
use fdm_txn::{BatchPolicy, DurabilityConfig, RefreshMode, Store, StoreConfig, Transaction};
use fdm_workload::{retail_store, run_writers, CommitRecord, MixedConfig, RetailConfig};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

// ------------------------------------------------ counting allocator

thread_local! {
    /// Bytes this thread has allocated and not yet freed (tests run on
    /// threads of their own).
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local `Cell`
// with a const initializer and no destructor, so touching it neither
// allocates nor can run during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|n| n.set(n.get() + layout.size() as isize));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|n| n.set(n.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.with(|n| n.set(n.get() + new_size as isize - layout.size() as isize));
        // SAFETY: as for `dealloc`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn credit_of(db: &DatabaseF, cid: i64) -> i64 {
    db.relation("customers")
        .unwrap()
        .lookup(&Value::Int(cid))
        .unwrap()
        .get("credit")
        .unwrap()
        .as_int("credit")
        .unwrap()
}

fn replay_all(base: &DatabaseF, records: &[CommitRecord]) -> DatabaseF {
    let mut sorted: Vec<&CommitRecord> = records.iter().collect();
    sorted.sort_unstable_by_key(|r| r.version);
    let mut db = base.clone();
    for r in sorted {
        let key = Value::Int(r.op.customer);
        let old = credit_of(&db, r.op.customer);
        let t = db
            .relation("customers")
            .unwrap()
            .lookup(&key)
            .unwrap()
            .with_attr("credit", old + r.op.delta);
        db = db_upsert(&db, "customers", key, t).unwrap();
    }
    db
}

#[test]
fn as_of_round_trips_every_sequentially_committed_version() {
    let store = retail_store(&RetailConfig::small());
    // ten sequential commits, each changing one customer's credit
    let mut expected: Vec<DatabaseF> = vec![store.as_of(0).unwrap()];
    for i in 1..=10i64 {
        store
            .run(|txn| txn.update_attr("customers", &Value::Int(i % 5 + 1), "credit", i))
            .unwrap();
        expected.push(store.snapshot());
    }
    for (v, want) in expected.iter().enumerate() {
        let got = store.as_of(v as u64).unwrap();
        let diff = difference(want, &got).unwrap();
        assert!(diff.is_empty(), "as_of({v}) round-trip: {diff:?}");
    }
    // asking beyond the newest version answers with the newest root
    let ahead = store.as_of(1_000).unwrap();
    assert!(difference(&ahead, &store.snapshot()).unwrap().is_empty());
}

#[test]
fn compaction_preserves_the_window_and_evicts_the_rest() {
    let store = retail_store(&RetailConfig::small());
    for i in 1..=8i64 {
        store
            .run(|txn| txn.update_attr("customers", &Value::Int(1), "credit", i))
            .unwrap();
    }
    assert_eq!(store.history().len(), 9, "v0..v8");
    let inside_before = store.as_of(6).unwrap();

    assert_eq!(store.compact_history(3), 6);
    assert_eq!(store.history().versions(), vec![6, 7, 8]);

    // inside the window: identical answers before and after compaction
    let inside_after = store.as_of(6).unwrap();
    assert!(difference(&inside_before, &inside_after)
        .unwrap()
        .is_empty());
    // below the window: typed eviction
    assert!(matches!(
        store.as_of(2).unwrap_err(),
        fdm_core::FdmError::VersionEvicted {
            version: 2,
            oldest: Some(6),
            ..
        }
    ));
    // new commits keep recording into the compacted history
    store
        .run(|txn| txn.update_attr("customers", &Value::Int(1), "credit", 99))
        .unwrap();
    assert_eq!(store.history().versions(), vec![6, 7, 8, 9]);
    assert_eq!(credit_of(&store.as_of(9).unwrap(), 1), 99);
}

#[test]
fn history_capacity_is_respected_under_load() {
    let base = retail_store(&RetailConfig::small()).snapshot();
    let store = Store::with_config(
        base,
        StoreConfig {
            history_capacity: 5,
            ..StoreConfig::default()
        },
    );
    for i in 1..=20i64 {
        store
            .run(|txn| txn.update_attr("customers", &Value::Int(1), "credit", i))
            .unwrap();
    }
    assert_eq!(store.history().len(), 5);
    assert_eq!(store.history().oldest(), Some(16));
    assert!(store.as_of(10).is_err());
    assert_eq!(credit_of(&store.as_of(18).unwrap(), 1), 18);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the interleaving, replaying the recorded commit log onto
    /// the base snapshot reproduces the live root exactly.
    #[test]
    fn interleaved_commit_logs_replay_to_the_live_root(
        threads in 1usize..4,
        ops in 4usize..16,
        seed in any::<u64>(),
        skew in 0u8..3,
    ) {
        let store = retail_store(&RetailConfig::small());
        let cfg = MixedConfig {
            threads,
            ops_per_thread: ops,
            seed,
            skew: skew as f64 * 0.6,
        };
        let records = run_writers(&store, &cfg);
        prop_assert_eq!(records.len(), threads * ops);

        let base = store.as_of(0).unwrap();
        let replayed = replay_all(&base, &records);
        let live = store.snapshot();
        let diff = difference(&replayed, &live).unwrap();
        prop_assert!(diff.is_empty(), "replayed log diverges from live root: {:?}", diff);

        // and the history's newest entry is the live root
        let (v, newest) = store.history().latest().unwrap();
        prop_assert_eq!(v, store.version());
        prop_assert!(difference(&newest, &live).unwrap().is_empty());
    }
}

/// `Arc<Store>` keeps history shared: compaction through one handle is
/// visible through the other (no hidden copies).
#[test]
fn history_is_shared_across_store_handles() {
    let store = retail_store(&RetailConfig::small());
    let other: Arc<Store> = Arc::clone(&store);
    for i in 1..=4i64 {
        store
            .run(|txn| txn.update_attr("customers", &Value::Int(2), "credit", i))
            .unwrap();
    }
    assert_eq!(other.history().len(), 5);
    other.compact_history(2);
    assert_eq!(store.history().versions(), vec![3, 4]);
}

// ------------------------------------------------ bytes per retained version

/// The heap a store keeps live after 2048 one-row upserts of 2-attribute
/// tuples into a 2^15-row relation, retaining `capacity` versions.
fn live_heap_after_upserts(capacity: usize) -> isize {
    const ROWS: i64 = 1 << 15;
    let row = |a: i64, b: i64| TupleF::builder("t").attr("a", a).attr("b", b).build();
    let before = LIVE.with(Cell::get);
    let mut rows = RelationBuilder::new("r", &["k"]);
    for k in 0..ROWS {
        rows.push(Value::Int(k), row(k, 0));
    }
    let db = DatabaseF::new("d").with_relation(rows.build().unwrap());
    let store = Store::with_config(
        db,
        StoreConfig {
            history_capacity: capacity,
            ..StoreConfig::default()
        },
    );
    for i in 0..2048 {
        store
            .upsert_one("r", Value::Int(i * 7919 % ROWS), row(i, 1))
            .unwrap();
    }
    assert_eq!(store.history().len(), capacity.min(2049));
    LIVE.with(Cell::get) - before
}

/// A retained version keeps its commit's undo — an op list and the tuple
/// it restores — not a root pinning the path its successor superseded:
/// at most 512 B of heap each for a one-row upsert. (Retaining roots
/// kept 1,664 B per version here.)
#[test]
fn a_retained_version_keeps_its_undo_not_its_root() {
    live_heap_after_upserts(1); // warm whatever the first run allocates once
    let wide = live_heap_after_upserts(1024);
    let narrow = live_heap_after_upserts(1);
    let per_version = (wide - narrow) / 1023;
    assert!(
        per_version <= 512,
        "each retained version keeps {per_version} B live"
    );
}

/// The view that [`a_view_that_is_never_refreshed_pins_nothing`] leaves
/// behind.
fn lazy_query() -> Query {
    Query::scan("r").filter("b > 0", Params::new())
}

/// The heap per commit a store over a 2^15-row relation, retaining 64
/// versions, keeps live over 2048 one-row upserts after 256 warm-up ones —
/// with a Manual view over the relation that is never refreshed, or
/// without. Returns the store too, so the count is taken with it alive.
fn live_heap_per_commit(with_view: bool) -> (isize, Arc<Store>) {
    const ROWS: i64 = 1 << 15;
    const WARM: i64 = 256;
    const COUNTED: i64 = 2048;
    let row = |a: i64, b: i64| TupleF::builder("t").attr("a", a).attr("b", b).build();
    let mut rows = RelationBuilder::new("r", &["k"]);
    for k in 0..ROWS {
        rows.push(Value::Int(k), row(k, 0));
    }
    let db = DatabaseF::new("d").with_relation(rows.build().unwrap());
    let config = StoreConfig {
        history_capacity: 64,
        ..StoreConfig::default()
    };
    let store = Store::with_config(db, config);
    if with_view {
        store
            .register_view_with("lazy", lazy_query(), RefreshMode::Manual)
            .unwrap();
    }
    let upsert = |i: i64| {
        store
            .upsert_one("r", Value::Int(i * 7919 % ROWS), row(i, 1))
            .unwrap()
    };
    for i in 0..WARM {
        upsert(i);
    }
    let before = LIVE.with(Cell::get);
    for i in WARM..WARM + COUNTED {
        upsert(i);
    }
    ((LIVE.with(Cell::get) - before) / COUNTED as isize, store)
}

/// A Manual view that is never refreshed holds no root, no delta and no
/// record per commit: the store with it keeps at most 64 B per commit more
/// live than the one without. (When the catalog kept a root and a delta per
/// commit until the slowest view passed it, that was ≈ 2,050 B.) Refreshed
/// at last, the view — rebuilt over the oldest retained version, then
/// drained — equals a recompute.
#[test]
fn a_view_that_is_never_refreshed_pins_nothing() {
    let (plain, _) = live_heap_per_commit(false);
    let (viewed, store) = live_heap_per_commit(true);
    assert!(
        viewed - plain <= 64,
        "the view keeps {} B live per commit ({viewed} B against {plain} B)",
        viewed - plain
    );
    let head = store.version();
    assert_eq!(store.refresh_views_to(head).unwrap(), head);
    let (at, rel) = store.view("lazy").unwrap();
    assert_eq!(at, head);
    let fresh = lazy_query().eval(&store.snapshot()).unwrap();
    assert_eq!(canonical_rows(&rel), canonical_rows(&fresh));
    assert!(store.view_stats("lazy").unwrap().fallback_recomputes >= 1);
}

// ------------------------------------------------ as_of ≡ captured snapshots

/// One relation of each kind the undo treats differently — `r` a plain
/// stored map, `u` one under a `Unique` constraint, `h` a hybrid with a
/// computed fallback (left out of a durable store, which cannot log a
/// closure) — and `s`, written only by the commits that send a stale
/// transaction down the replay path.
fn kinds_db(durable: bool) -> DatabaseF {
    let mut r = RelationF::new("r", &["k"]);
    let mut u = unique_relation();
    for k in 0..4 {
        r = r.insert(Value::Int(k), tuple(k)).unwrap();
        u = u.insert(Value::Int(k), email(k)).unwrap();
    }
    let db = DatabaseF::new("kinds")
        .with_relation(r)
        .with_relation(u)
        .with_relation(RelationF::new("s", &["k"]));
    if durable {
        db
    } else {
        db.with_relation(hybrid(3))
    }
}

fn tuple(v: i64) -> TupleF {
    TupleF::builder("t").attr("v", v).build()
}

fn email(e: i64) -> TupleF {
    TupleF::builder("e").attr("email", format!("e{e}")).build()
}

fn unique_relation() -> RelationF {
    RelationF::new("u", &["k"])
        .with_constraint(Constraint::unique(&["email"]))
        .unwrap()
}

/// `h`: `stored` keys stored, the rest of `0..8` answered by a fallback.
fn hybrid(stored: i64) -> RelationF {
    let mut h = RelationF::new("h", &["k"]);
    for k in 0..stored {
        h = h.insert(Value::Int(k), tuple(-k)).unwrap();
    }
    h.with_fallback(Domain::IntRange(0, 7), |k| {
        let t = TupleF::builder("λ").attr("v", k.clone()).build();
        Ok(Value::Fn(FnValue::from(t)))
    })
    .unwrap()
}

/// Stages one random write on `txn`. A write the transaction refuses (a
/// missing key or entry, a unique violation) stages nothing.
fn stage(txn: &mut Transaction, rng: &mut TestRng, durable: bool, n: i64) {
    let k = Value::Int(rng.below(6) as i64);
    let names: &[&str] = if durable {
        &["r", "u", "x"]
    } else {
        &["r", "u", "h", "x"]
    };
    let name = names[rng.below(names.len() as u64) as usize];
    let hybrid_or_plain = if durable { "r" } else { "h" };
    let _ = match rng.below(10) {
        0 => txn.upsert("r", k, tuple(n)),
        1 => txn.delete("r", &k),
        2 => txn.upsert("u", k, email(rng.below(6) as i64)),
        3 => txn.delete("u", &k),
        4 => txn.upsert(hybrid_or_plain, k, tuple(n)),
        5 => txn.delete(hybrid_or_plain, &k),
        // several writes to one key in one transaction
        6 => txn
            .upsert("r", k.clone(), tuple(n))
            .and_then(|()| txn.upsert("r", k, tuple(n + 1))),
        7 => txn.drop_entry(name),
        _ => {
            let fresh = match name {
                "u" => unique_relation().insert(k, email(n)).unwrap(),
                "h" => hybrid(rng.below(4) as i64),
                _ => RelationF::new(name, &["k"]).insert(k, tuple(n)).unwrap(),
            };
            txn.assign(name, fresh)
        }
    };
}

/// A store under a random stream of commits, with the snapshot captured
/// right after each one and the retention window the history must keep.
struct Run {
    store: Arc<Store>,
    /// `snapshots[v]`: the root right after commit `v`.
    snapshots: Vec<DatabaseF>,
    window: VecDeque<Version>,
    capacity: usize,
}

impl Run {
    /// Captures what a call that may have committed left, if it did.
    fn capture(&mut self) {
        let (v, db) = self.store.snapshot_versioned();
        let newest = self.snapshots.len() as Version - 1;
        assert!(v <= newest + 1, "one call installs at most one version");
        if v == newest + 1 {
            self.snapshots.push(db);
            self.window.push_back(v);
            if self.window.len() > self.capacity {
                self.window.pop_front();
            }
        }
    }

    fn compact(&mut self, keep: usize) {
        let evicted = self.store.compact_history(keep);
        let excess = self.window.len().saturating_sub(keep.max(1));
        assert_eq!(evicted, excess);
        self.window.drain(..excess);
    }

    /// `as_of(v)` is the snapshot captured after commit `v` — same name,
    /// entry set and relation kinds, and an empty Fig. 9 `difference` —
    /// or, below the window, the typed eviction naming that window.
    fn check(&self, v: Version) {
        let window = (self.window.front().copied(), self.window.back().copied());
        match self.store.as_of(v) {
            Ok(got) => {
                assert!(
                    window.0.is_some_and(|oldest| oldest <= v),
                    "as_of({v}) below {window:?}"
                );
                let want = &self.snapshots[(v as usize).min(self.snapshots.len() - 1)];
                assert_eq!(got.name(), want.name());
                assert_eq!(got.names(), want.names(), "as_of({v}) entry set");
                for name in want.names() {
                    let (a, b) = (want.relation(&name).unwrap(), got.relation(&name).unwrap());
                    assert_eq!(
                        a.is_plain_stored(),
                        b.is_plain_stored(),
                        "as_of({v}) {name}"
                    );
                    assert_eq!(
                        a.constraints().len(),
                        b.constraints().len(),
                        "as_of({v}) {name}"
                    );
                }
                let diff = difference(want, &got).unwrap();
                assert!(diff.is_empty(), "as_of({v}) differs: {diff:?}");
            }
            Err(FdmError::VersionEvicted {
                version,
                oldest,
                newest,
            }) => assert_eq!((version, (oldest, newest)), (v, window), "as_of({v})"),
            Err(e) => panic!("as_of({v}): {e}"),
        }
    }

    /// Checks every version from 0 to past the newest, in random order,
    /// so the roots an earlier rebuild kept vary where later ones start.
    fn check_all(&self, rng: &mut TestRng) {
        let mut order: Vec<Version> = (0..self.snapshots.len() as Version + 2).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for v in order {
            self.check(v);
        }
    }
}

/// Drives `steps` random actions: single commits, stale commits that take
/// the replay path, `commit_batch` groups, compactions and `as_of` checks
/// in between.
fn drive(run: &mut Run, rng: &mut TestRng, durable: bool, steps: usize) {
    for step in 0..steps {
        let n = step as i64 * 10;
        match rng.below(8) {
            0..=2 => {
                let mut txn = run.store.begin();
                for i in 0..1 + rng.below(3) as i64 {
                    stage(&mut txn, rng, durable, n + i);
                }
                let _ = txn.commit();
                run.capture();
            }
            3 => {
                let mut stale = run.store.begin();
                for i in 0..1 + rng.below(3) as i64 {
                    stage(&mut stale, rng, durable, n + i);
                }
                run.store.upsert_one("s", Value::Int(0), tuple(n)).unwrap();
                run.capture();
                let _ = stale.commit();
                run.capture();
            }
            4 | 5 => {
                let txns = (0..2 + rng.below(3) as i64)
                    .map(|i| {
                        let mut txn = run.store.begin();
                        stage(&mut txn, rng, durable, n + i);
                        txn
                    })
                    .collect();
                let _ = run.store.commit_batch(txns, &BatchPolicy::default());
                run.capture();
            }
            6 => run.compact(1 + rng.below(4) as usize),
            _ => run.check(rng.below(run.snapshots.len() as u64 + 1)),
        }
        assert_eq!(
            run.store.history().versions(),
            Vec::from(run.window.clone())
        );
    }
}

fn capacity(rng: &mut TestRng) -> usize {
    [1, 2, 3, 5, 8, 1024][rng.below(6) as usize]
}

proptest! {
    /// `as_of` over undos answers every retained version exactly as the
    /// snapshot taken right after its commit, and every evicted one with
    /// the typed error naming the window.
    #[test]
    fn as_of_rebuilds_every_retained_version(seed in any::<u64>(), steps in 4usize..40) {
        let mut rng = TestRng::new(seed);
        let capacity = capacity(&mut rng);
        let store = Store::with_config(
            kinds_db(false),
            StoreConfig {
                history_capacity: capacity,
                ..StoreConfig::default()
            },
        );
        let mut run = Run {
            snapshots: vec![store.snapshot()],
            store,
            window: VecDeque::from([0]),
            capacity,
        };
        drive(&mut run, &mut rng, false, steps);
        run.check_all(&mut rng);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The durable case: after a kill and a reopen, `as_of` over the
    /// replayed tail — rebuilt from the undos recovery's replay built —
    /// equals the snapshots taken before the crash.
    #[test]
    fn as_of_rebuilds_the_replayed_tail_after_a_reopen(seed in any::<u64>(), steps in 4usize..24) {
        let mut rng = TestRng::new(seed);
        let dir = std::env::temp_dir().join(format!("fdm-history-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durability = DurabilityConfig::new(&dir).with_checkpoint_every(Some(1 + rng.below(16)));
        let config = || StoreConfig {
            history_capacity: 1024,
            durability: Some(durability.clone()),
            ..StoreConfig::default()
        };
        let store = Store::create(kinds_db(true), config()).unwrap();
        let mut run = Run {
            snapshots: vec![store.snapshot()],
            store,
            window: VecDeque::from([0]),
            capacity: 1024,
        };
        drive(&mut run, &mut rng, true, steps);
        let newest = run.snapshots.len() as Version - 1;
        drop(std::mem::replace(&mut run.store, Store::new(DatabaseF::new("none"))));

        run.store = Store::open_with(config()).unwrap();
        assert_eq!(run.store.version(), newest, "every commit was acknowledged durable");
        let oldest = run.store.history().oldest().unwrap();
        run.window = (oldest..=newest).collect();
        run.check_all(&mut rng);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
