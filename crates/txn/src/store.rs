//! The transactional store: a versioned root holding the committed
//! database function, the commit log used for snapshot-isolation
//! validation, and the bounded version history behind time-travel reads.

use crate::catalog::{RefreshMode, ViewCatalog};
use crate::history::History;
use crate::txn::Transaction;
use crate::writeset::{apply_ops, Op, WriteSet};
use fdm_core::{DatabaseF, FdmError, RelationF, Result, TupleF, Value};
use fdm_durability::{
    check_record_payload, encode_ops, list_checkpoints, prune_checkpoints, recover,
    write_checkpoint, DurabilityConfig, DurabilityError, IntegrityReport, SyncPolicy, Wal, WalOp,
};
use fdm_storage::VersionedRoot;
use fdm_storage::{Backoff, Version};
use parking_lot::Mutex;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::FaultPlan;
#[cfg(any(test, feature = "fault-injection"))]
use fdm_durability::{write_checkpoint_faulty, CrashPlan};

/// How a commit behaves under contention: how many attempts it makes, how
/// it paces them, and when it gives up.
///
/// The backoff between attempts is exponential with **deterministic
/// seeded jitter** ([`fdm_storage::Backoff`]): a fixed `jitter_seed`
/// replays the same delay schedule, so contention tests are reproducible,
/// while different seeds desynchronize contending committers.
#[derive(Debug, Clone)]
pub struct CommitPolicy {
    /// Total commit attempts, including the first (min 1).
    pub max_attempts: usize,
    /// First retry delay; doubles per attempt.
    pub base_backoff: Duration,
    /// Ceiling on any single retry delay.
    pub max_backoff: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
    /// Overall wall-clock budget; `None` = bounded by attempts only.
    pub timeout: Option<Duration>,
}

impl Default for CommitPolicy {
    fn default() -> Self {
        CommitPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_micros(20),
            max_backoff: Duration::from_millis(2),
            jitter_seed: 0xFD_C0FFEE,
            timeout: None,
        }
    }
}

impl CommitPolicy {
    /// A policy that makes exactly one attempt (the pre-hardening
    /// behavior: any transient conflict surfaces immediately).
    pub fn no_retry() -> Self {
        CommitPolicy {
            max_attempts: 1,
            ..CommitPolicy::default()
        }
    }

    /// Sets the attempt budget (min 1).
    pub fn with_max_attempts(mut self, n: usize) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// Sets the backoff range (first delay, ceiling).
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> Self {
        self.base_backoff = base;
        self.max_backoff = max;
        self
    }

    /// Sets the jitter seed (deterministic schedules per seed).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Sets the wall-clock budget.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// A fresh backoff schedule for one commit, per this policy.
    pub(crate) fn backoff(&self) -> Backoff {
        Backoff::new(self.base_backoff, self.max_backoff, self.jitter_seed)
    }
}

/// What a successful commit reports, beyond the bare version number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitOutcome {
    /// The version this commit installed (the snapshot version for a
    /// read-only transaction, which installs nothing).
    pub version: Version,
    /// Commit attempts spent, including the successful one (0 for a
    /// read-only transaction, which never reaches the commit path).
    pub attempts: usize,
    /// Transient conflicts survived along the way, in display form:
    /// `("<cas>", "v{expected}->v{found}")` for lost install races and
    /// `("<injected>", "v{n}")` for injected faults. Genuine first-
    /// committer-wins conflicts never appear here — they are terminal and
    /// carry their keys on [`FdmError::TransactionConflict`] instead.
    pub conflicts: Vec<(String, String)>,
}

/// Construction-time knobs for a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Default policy used by [`Transaction::commit`] and
    /// [`Store::run`].
    pub policy: CommitPolicy,
    /// Versions retained for [`Store::as_of`] time travel. Persistence
    /// makes retention cheap — each entry is one root pointer sharing all
    /// unchanged structure with its neighbors.
    pub history_capacity: usize,
    /// Commit-log entries retained for conflict validation.
    pub log_cap: usize,
    /// Durability section: directory, fsync cadence (group commit),
    /// segment rotation, checkpoint retention. `None` (the default) is a
    /// purely in-memory store. Durable stores are built with
    /// [`Store::create`] / [`Store::open`] / [`Store::open_with`], which
    /// are fallible; the infallible constructors reject a config that
    /// sets this.
    pub durability: Option<DurabilityConfig>,
    /// Capacity of the hot-tuple cache fronting [`Store::read_point`]
    /// (see [`crate::cache`] for the invalidation contract). `None` (the
    /// default) disables caching: point reads always walk the tree.
    pub hot_cache: Option<usize>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            policy: CommitPolicy::default(),
            history_capacity: 1024,
            log_cap: 4096,
            durability: None,
            hot_cache: None,
        }
    }
}

/// The durability half of a store: the live WAL writer plus checkpoint
/// bookkeeping. Present only on stores built by [`Store::create`] /
/// [`Store::open`].
pub(crate) struct Durable {
    /// Directory, fsync cadence, retention — fixed at open time.
    cfg: DurabilityConfig,
    /// The append half of the write-ahead log. A `std` mutex (not the
    /// vendored `parking_lot` shim) because waiters on the durable
    /// watermark need a [`std::sync::Condvar`] paired with this exact
    /// lock; access goes through [`Durable::wal`].
    wal: std::sync::Mutex<Wal>,
    /// Signaled (with `wal` held) whenever an append advances the
    /// durable watermark. Under [`SyncPolicy::Always`] an out-of-order
    /// committer parks here until the gap-filling append's fsync covers
    /// its version — see [`Store::record_commit`].
    wal_synced: std::sync::Condvar,
    /// Commits since the last checkpoint (drives
    /// [`DurabilityConfig::checkpoint_every`]).
    since_checkpoint: Mutex<u64>,
    /// Crash plan for checkpoint writes; the WAL writer holds its own
    /// copy (test/fault-injection builds only).
    #[cfg(any(test, feature = "fault-injection"))]
    plan: Mutex<Option<Arc<CrashPlan>>>,
}

impl Durable {
    /// Locks the WAL, recovering from poison — the same non-poisoning
    /// discipline as the `parking_lot` locks used everywhere else.
    fn wal(&self) -> std::sync::MutexGuard<'_, Wal> {
        self.wal.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A transactional FDM store.
///
/// Readers take O(1) snapshots (the database function is persistent);
/// writers run under snapshot isolation: each transaction works on its
/// snapshot, and at commit time its write set is validated against every
/// transaction that committed after the snapshot was taken. Disjoint
/// writers merge (their recorded operations replay onto the latest root);
/// overlapping writers lose with [`FdmError::TransactionConflict`] —
/// first committer wins. Transient losses (CAS races, injected faults)
/// are retried under the store's [`CommitPolicy`] with deterministic
/// seeded backoff.
///
/// Every commit is also recorded into a bounded [`History`], so
/// [`Store::as_of`] serves time-travel reads without blocking writers.
///
/// # Examples
///
/// ```
/// use fdm_core::{DatabaseF, RelationF, TupleF, Value};
/// use fdm_txn::Store;
///
/// let accounts = RelationF::new("accounts", &["id"])
///     .insert(Value::Int(42), TupleF::builder("a").attr("balance", 1000).build()).unwrap()
///     .insert(Value::Int(84), TupleF::builder("a").attr("balance", 500).build()).unwrap();
/// let store = Store::new(DatabaseF::new("bank").with_relation(accounts));
///
/// // begin() ... commit()  (paper Fig. 11)
/// let mut txn = store.begin();
/// txn.modify_attr("accounts", &Value::Int(42), "balance", |v| v.sub(&Value::Int(100))).unwrap();
/// txn.modify_attr("accounts", &Value::Int(84), "balance", |v| v.add(&Value::Int(100))).unwrap();
/// txn.commit().unwrap();
///
/// let db = store.snapshot();
/// let bal = db.relation("accounts").unwrap().lookup(&Value::Int(42)).unwrap()
///     .get("balance").unwrap();
/// assert_eq!(bal, Value::Int(900));
///
/// // time travel: the pre-transfer state is one as_of away
/// let past = store.as_of(0).unwrap();
/// let bal0 = past.relation("accounts").unwrap().lookup(&Value::Int(42)).unwrap()
///     .get("balance").unwrap();
/// assert_eq!(bal0, Value::Int(1000));
/// ```
pub struct Store {
    pub(crate) root: Arc<VersionedRoot<DatabaseF>>,
    /// Commit log: `(version, write set)` of every commit, version-sorted,
    /// newest last. Trimming below the oldest version any conflict check
    /// can need would require tracking active transactions; we keep a
    /// bounded tail instead, which is correct as long as snapshots are not
    /// older than the tail — enforced in commit validation.
    pub(crate) log: Mutex<Vec<(Version, WriteSet)>>,
    /// Maximum retained commit-log entries.
    pub(crate) log_cap: usize,
    /// Default commit policy (see [`Transaction::commit_with`] to
    /// override per commit).
    pub(crate) policy: CommitPolicy,
    /// Committed roots for time travel, recorded on every write commit.
    pub(crate) history: History,
    /// The WAL + checkpoint machinery, when this store is durable.
    pub(crate) durable: Option<Durable>,
    /// Maintained views subscribed to commits (see [`Store::register_view`]).
    pub(crate) views: ViewCatalog,
    /// Hot-tuple cache fronting point reads, when configured
    /// (`StoreConfig::hot_cache`); invalidated inside
    /// [`Store::record_commit`] before anything else.
    pub(crate) cache: Option<crate::cache::HotTupleCache>,
    /// Injected faults, if a plan is installed (test/fault-injection
    /// builds only).
    #[cfg(any(test, feature = "fault-injection"))]
    pub(crate) faults: Mutex<Option<Arc<FaultPlan>>>,
}

/// What [`Store::validate`] found between a snapshot and the root a commit
/// attempt is about to build on.
pub(crate) enum Validation {
    /// Every version in between is recorded and none overlaps.
    Clear,
    /// A genuine write-write overlap (or a trimmed log): terminal.
    Conflict(FdmError),
    /// Some version in between is installed but not yet in the log: the
    /// attempt is a transient loss — pace, reload, validate again.
    Unrecorded,
}

impl Store {
    /// Creates a store with the given initial database (version 0) and
    /// default configuration.
    pub fn new(db: DatabaseF) -> Arc<Store> {
        Store::with_config(db, StoreConfig::default())
    }

    /// Creates a store with an explicit default [`CommitPolicy`].
    pub fn with_policy(db: DatabaseF, policy: CommitPolicy) -> Arc<Store> {
        Store::with_config(
            db,
            StoreConfig {
                policy,
                ..StoreConfig::default()
            },
        )
    }

    /// Creates a store with full construction-time configuration.
    ///
    /// # Panics
    ///
    /// If `config.durability` is set — durable stores need fallible
    /// construction; use [`Store::create`] or [`Store::open_with`].
    pub fn with_config(db: DatabaseF, config: StoreConfig) -> Arc<Store> {
        assert!(
            config.durability.is_none(),
            "StoreConfig sets durability: build this store with Store::create or Store::open_with"
        );
        Store::build(db, 0, config, None)
    }

    fn build(
        db: DatabaseF,
        version: Version,
        config: StoreConfig,
        durable: Option<Durable>,
    ) -> Arc<Store> {
        let history = History::new(config.history_capacity);
        history.record(version, db.clone());
        Arc::new(Store {
            root: Arc::new(VersionedRoot::with_version(db, version)),
            log: Mutex::new(Vec::new()),
            log_cap: config.log_cap.max(1),
            policy: config.policy,
            history,
            durable,
            views: ViewCatalog::default(),
            // a recovered store starts cold at the recovered version:
            // nothing cached before the crash can be trusted
            cache: config
                .hot_cache
                .map(|cap| crate::cache::HotTupleCache::new(cap, version)),
            #[cfg(any(test, feature = "fault-injection"))]
            faults: Mutex::new(None),
        })
    }

    /// Creates a **durable** store in a fresh directory: writes the
    /// version-0 checkpoint (the initial database), starts the WAL at
    /// version 1, and returns the running store. `config.durability`
    /// must be set; the directory must not already hold checkpoints
    /// (open an existing store with [`Store::open`]).
    pub fn create(db: DatabaseF, config: StoreConfig) -> Result<Arc<Store>, DurabilityError> {
        let dcfg = config
            .durability
            .clone()
            .ok_or_else(|| DurabilityError::Corrupt {
                detail: "Store::create needs StoreConfig::durability".into(),
            })?;
        std::fs::create_dir_all(&dcfg.dir)?;
        if !list_checkpoints(&dcfg.dir)?.is_empty() {
            return Err(DurabilityError::Corrupt {
                detail: format!(
                    "{}: directory already holds checkpoints; use Store::open",
                    dcfg.dir.display()
                ),
            });
        }
        write_checkpoint(&dcfg.dir, 0, &db)?;
        let wal = Wal::create(&dcfg, 1)?;
        Ok(Store::build(
            db,
            0,
            config,
            Some(Durable {
                cfg: dcfg,
                wal: std::sync::Mutex::new(wal),
                wal_synced: std::sync::Condvar::new(),
                since_checkpoint: Mutex::new(0),
                #[cfg(any(test, feature = "fault-injection"))]
                plan: Mutex::new(None),
            }),
        ))
    }

    /// Opens (recovers) a durable store from `dir` with default
    /// configuration: newest valid checkpoint + WAL tail replay, torn
    /// tail truncated on resume. See [`Store::open_with`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Arc<Store>, DurabilityError> {
        Store::open_with(StoreConfig {
            durability: Some(DurabilityConfig::new(dir.as_ref())),
            ..StoreConfig::default()
        })
    }

    /// Opens (recovers) a durable store with explicit configuration.
    ///
    /// Recovery anchors on the newest *valid* checkpoint, replays every
    /// contiguous WAL record above it through the same apply path commits
    /// use, truncates a torn tail (a crash artifact) in place, and
    /// resumes the WAL at the next version. Mid-log corruption — a
    /// record that fails its CRC but is *followed* by valid records — is
    /// a hard [`DurabilityError::ChecksumMismatch`]: that is damage, not
    /// a crash, and silently dropping acknowledged commits is worse than
    /// refusing to open.
    ///
    /// Every replayed commit is recorded into the commit log and the
    /// time-travel history, so conflict validation and [`Store::as_of`]
    /// behave exactly as if the store had never restarted.
    pub fn open_with(config: StoreConfig) -> Result<Arc<Store>, DurabilityError> {
        let dcfg = config
            .durability
            .clone()
            .ok_or_else(|| DurabilityError::Corrupt {
                detail: "Store::open_with needs StoreConfig::durability".into(),
            })?;
        let rec = recover(&dcfg)?;
        let wal = Wal::resume(&dcfg, rec.next_version, rec.tail.clone())?;
        let store = Store::build(
            rec.db.clone(),
            rec.checkpoint_version,
            config,
            Some(Durable {
                cfg: dcfg,
                wal: std::sync::Mutex::new(wal),
                wal_synced: std::sync::Condvar::new(),
                since_checkpoint: Mutex::new(0),
                #[cfg(any(test, feature = "fault-injection"))]
                plan: Mutex::new(None),
            }),
        );
        let mut db = rec.db;
        for commit in rec.commits {
            let ops: Vec<Op> = commit.ops.into_iter().map(Op::from).collect();
            db = apply_ops(&db, &ops).map_err(|e| DurabilityError::Corrupt {
                detail: format!("replaying recovered commit v{}: {e}", commit.version),
            })?;
            store
                .root
                .try_install(commit.version - 1, db.clone())
                .map_err(|race| DurabilityError::Corrupt {
                    detail: format!(
                        "recovery replay raced: expected v{}, found v{}",
                        race.expected, race.found
                    ),
                })?;
            store
                .record_commit(
                    commit.version,
                    WriteSet::from_ops(&ops),
                    &ops,
                    None,
                    db.clone(),
                )
                .map_err(|e| DurabilityError::Corrupt {
                    detail: format!("recording recovered commit v{}: {e}", commit.version),
                })?;
        }
        Ok(store)
    }

    /// The current committed version.
    pub fn version(&self) -> Version {
        self.root.version()
    }

    /// An O(1) consistent snapshot of the committed database.
    pub fn snapshot(&self) -> DatabaseF {
        self.root.load().value
    }

    /// An O(1) consistent snapshot together with the version it was taken
    /// at (version and value read atomically).
    pub fn snapshot_versioned(&self) -> (Version, DatabaseF) {
        let snap = self.root.load();
        (snap.version, snap.value)
    }

    /// The store's default commit policy.
    pub fn policy(&self) -> &CommitPolicy {
        &self.policy
    }

    /// The committed database as of `version`: the newest recorded
    /// version ≤ `version`, replayed from the store's [`History`].
    /// Errors with [`FdmError::VersionEvicted`] below the retained
    /// window. Never blocks writers — the history read lock is held only
    /// to clone one persistent root.
    pub fn as_of(&self, version: Version) -> Result<DatabaseF> {
        self.history.as_of(version)
    }

    /// The version history behind [`Store::as_of`].
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Bounds the time-travel log to the newest `keep_last_n` versions;
    /// returns how many entries were evicted.
    pub fn compact_history(&self, keep_last_n: usize) -> usize {
        self.history.compact(keep_last_n)
    }

    /// Registers an **eagerly maintained** view: compiles `query` through
    /// the default optimizer, materializes it against the current
    /// snapshot, and subscribes it to every subsequent commit — each
    /// commit's writeset is propagated incrementally through the view's
    /// operator tree under that commit's version (see `docs/VIEWS.md`).
    /// Returns the version the view starts at. Errors if a view with
    /// this name is already registered or the initial evaluation fails.
    pub fn register_view(&self, name: &str, query: fdm_fql::Query) -> Result<Version> {
        self.register_view_with(name, query, RefreshMode::Eager)
    }

    /// [`Store::register_view`] with an explicit [`RefreshMode`]:
    /// [`RefreshMode::Manual`] views are advanced only by
    /// [`Store::refresh_views_to`], keeping the commit path free of
    /// maintenance work while the catalog buffers the deltas.
    pub fn register_view_with(
        &self,
        name: &str,
        query: fdm_fql::Query,
        mode: RefreshMode,
    ) -> Result<Version> {
        self.views
            .register(name, query, mode, || self.snapshot_versioned())
    }

    /// Reads a registered view: the maintained result relation and the
    /// commit version it reflects. Errors if no view has this name or a
    /// maintenance failure poisoned it.
    pub fn view(&self, name: &str) -> Result<(Version, RelationF)> {
        self.views.read(name)
    }

    /// Maintenance counters for a registered view (deltas applied, rows
    /// changed, dirty groups, fallback recomputes), or `None` if no view
    /// has this name.
    pub fn view_stats(&self, name: &str) -> Option<fdm_fql::IvmStats> {
        self.views.stats(name)
    }

    /// Brings every registered view — manual and eager — forward through
    /// the buffered commits, up to at most `version`. Returns the
    /// minimum watermark across healthy views: the version all of them
    /// are guaranteed to reflect (which may exceed `version` if they
    /// were already ahead, or fall short of it if a commit in between
    /// has installed but not yet reached its post-install bookkeeping).
    pub fn refresh_views_to(&self, version: Version) -> Result<Version> {
        self.views.refresh_to(version)
    }

    /// Begins a transaction on the current snapshot (paper Fig. 11
    /// `begin()`).
    ///
    /// Deliberately touches only the versioned root's read lock — never
    /// the commit-log mutex — so a reader-heavy workload cannot stall
    /// committers and a stalled committer cannot stall `begin()`. Pinned
    /// by `begin_and_snapshot_never_take_the_commit_log_lock` below.
    pub fn begin(self: &Arc<Self>) -> Transaction {
        let snap = self.root.load();
        Transaction::new(Arc::clone(self), snap.version, snap.value)
    }

    /// Runs `f` as a transaction under the store's default policy; see
    /// [`Store::run_with`].
    pub fn run<T>(
        self: &Arc<Self>,
        f: impl FnMut(&mut Transaction) -> Result<T>,
    ) -> Result<(T, CommitOutcome)> {
        let policy = self.policy.clone();
        self.run_with(&policy, f)
    }

    /// Runs `f` as a transaction, retrying the **whole closure** on
    /// conflict: a fresh snapshot, a re-executed body, a new commit. This
    /// is the safe retry for read-modify-write logic — replaying recorded
    /// writes after a genuine conflict would lose the other committer's
    /// update, so `commit` refuses to, and this re-derivation is the
    /// correct discipline instead.
    ///
    /// Up to `policy.max_attempts` executions, paced by the policy's
    /// seeded backoff; each inner commit also retries *transient* races
    /// under the same policy. Returns the closure's value and the final
    /// [`CommitOutcome`] (attempts = closure executions).
    pub fn run_with<T>(
        self: &Arc<Self>,
        policy: &CommitPolicy,
        mut f: impl FnMut(&mut Transaction) -> Result<T>,
    ) -> Result<(T, CommitOutcome)> {
        let start = std::time::Instant::now();
        let mut backoff = policy.backoff();
        let max_attempts = policy.max_attempts.max(1);
        let mut conflicts: Vec<(String, String)> = Vec::new();
        for attempt in 1..=max_attempts {
            let mut txn = self.begin();
            let out = f(&mut txn)?;
            match txn.commit_with(policy) {
                Ok(mut outcome) => {
                    outcome.attempts = attempt;
                    conflicts.append(&mut outcome.conflicts);
                    outcome.conflicts = conflicts;
                    return Ok((out, outcome));
                }
                Err(FdmError::TransactionConflict { detail, mut keys }) => {
                    conflicts.append(&mut keys);
                    if attempt == max_attempts {
                        return Err(FdmError::TransactionRetriesExhausted {
                            attempts: attempt,
                            detail,
                        });
                    }
                }
                Err(FdmError::TransactionRetriesExhausted { detail, .. }) => {
                    if attempt == max_attempts {
                        return Err(FdmError::TransactionRetriesExhausted {
                            attempts: attempt,
                            detail,
                        });
                    }
                }
                Err(e) => return Err(e),
            }
            if let Some(t) = policy.timeout {
                if start.elapsed() >= t {
                    return Err(FdmError::TransactionTimeout {
                        attempts: attempt,
                        elapsed_ms: start.elapsed().as_millis() as u64,
                    });
                }
            }
            backoff.sleep_next();
        }
        unreachable!("loop returns on the final attempt")
    }

    /// Per-statement autocommit (the paper's Fig. 10 note: "depending on
    /// the configured transaction mode ... the snapshot of the individual
    /// operation"): runs `f` as a single-statement transaction, retrying
    /// on conflict up to `retries` times.
    pub fn autocommit<T>(
        self: &Arc<Self>,
        retries: usize,
        f: impl Fn(&mut Transaction) -> Result<T>,
    ) -> Result<T> {
        let policy = self.policy.clone().with_max_attempts(retries + 1);
        self.run_with(&policy, f).map(|(out, _)| out)
    }

    /// Convenience single-statement write: insert-or-replace one tuple.
    pub fn upsert_one(self: &Arc<Self>, rel: &str, key: Value, tuple: TupleF) -> Result<Version> {
        let mut txn = self.begin();
        txn.upsert(rel, key, tuple)?;
        txn.commit()
    }

    /// Number of commits retained in the validation log.
    pub fn log_len(&self) -> usize {
        self.log.lock().len()
    }

    /// Point read of one tuple at the current version, served through
    /// the hot-tuple cache when one is configured
    /// (`StoreConfig::hot_cache`). The cache can only serve a value at
    /// or after the reader's snapshot version, never before it (the
    /// [`crate::cache`] invalidation contract); without a cache this is
    /// a plain snapshot lookup.
    pub fn read_point(&self, rel: &str, key: &Value) -> Result<Option<Arc<TupleF>>> {
        self.read_point_versioned(rel, key).map(|(_, t)| t)
    }

    /// [`Store::read_point`], also reporting the snapshot version the
    /// read was served at — the version the invalidation contract is
    /// stated against, which the pin tests assert with.
    pub fn read_point_versioned(
        &self,
        rel: &str,
        key: &Value,
    ) -> Result<(Version, Option<Arc<TupleF>>)> {
        if let Some(cache) = &self.cache {
            // Hit fast path: the version number alone suffices — no
            // snapshot clone. A hit at version `v` requires the cache to
            // have processed every invalidation `<= v`, so the entry is
            // the newest committed value *at or after* `v` (a commit can
            // land between the version read and the probe; serving its
            // newer value is within the contract, never older).
            let version = self.root.version();
            if let Some(t) = cache.get(rel, key, version) {
                return Ok((version, Some(t)));
            }
            let current = self.root.load();
            let found = current.value.relation(rel)?.lookup(key);
            if let Some(t) = &found {
                cache.fill(rel, key, t, current.version);
            }
            return Ok((current.version, found));
        }
        let current = self.root.load();
        Ok((current.version, current.value.relation(rel)?.lookup(key)))
    }

    /// The hot-tuple cache's counters, when one is configured.
    pub fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// First-committer-wins validation of a write set staged at snapshot
    /// `base` against the commits in `(base, current]`. `log` is the locked
    /// commit log: a batch validates all its members under one acquisition,
    /// and no caller holds it across replay, install or a backoff sleep.
    ///
    /// The commit transition is enabled only on a *fully recorded prefix*
    /// (the DB-nets reading of it, Montali & Rivkin): a winner installs its
    /// root and only then records its write set, so a version in `(base,
    /// current]` can be missing from the log for a moment. Treating that as
    /// "no conflict" is the lost update `unrecorded_winner_blocks_validation`
    /// pins; it is [`Validation::Unrecorded`] instead — a transient loss the
    /// caller paces and revalidates. Only a log that is full, and so has
    /// trimmed, makes a snapshot older than its oldest entry terminal.
    pub(crate) fn validate(
        &self,
        log: &[(Version, WriteSet)],
        base: Version,
        current: Version,
        writes: &WriteSet,
    ) -> Validation {
        if current == base {
            return Validation::Clear;
        }
        let mut recorded = 0;
        // the log is version-sorted: skip straight past the snapshot
        for (v, ws) in &log[log.partition_point(|(v, _)| *v <= base)..] {
            if writes.conflicts_with(ws) {
                return Validation::Conflict(FdmError::TransactionConflict {
                    detail: format!(
                        "write-write conflict with commit v{v} on {}",
                        writes.describe_overlap(ws)
                    ),
                    keys: writes.conflict_keys(ws),
                });
            }
            recorded += u64::from(*v <= current);
        }
        if recorded == current - base {
            return Validation::Clear;
        }
        match log.first() {
            Some((oldest, _)) if log.len() >= self.log_cap && base + 1 < *oldest => {
                Validation::Conflict(FdmError::TransactionConflict {
                    detail: format!(
                        "snapshot v{base} is older than the retained commit log (oldest v{oldest})"
                    ),
                    keys: Vec::new(),
                })
            }
            _ => Validation::Unrecorded,
        }
    }

    /// Records a successful commit: the write set into the validation log
    /// (version-sorted — concurrent winners may arrive out of order), the
    /// new root into the time-travel history, and — on a durable store
    /// with `wal_payload` — the encoded writeset into the WAL, fsynced
    /// per the configured [`fdm_durability::SyncPolicy`]. Recovery replay
    /// passes `None`: those commits are already on disk.
    ///
    /// Under [`SyncPolicy::Always`] this returns only once the commit's
    /// record is actually covered by an fsync: a record that arrived out
    /// of version order (parked in the WAL's pending buffer) blocks on
    /// [`Durable::wal_synced`] until the gap-filling append syncs past
    /// it, and fails with [`FdmError::Durability`] if the gap never
    /// fills ([`DurabilityConfig::gap_sync_timeout`]) — never a false
    /// acknowledgement.
    ///
    /// The in-memory bookkeeping always completes (the commit *is*
    /// installed); a WAL or checkpoint failure is then surfaced as
    /// [`FdmError::Durability`] — the memory state may be ahead of the
    /// log, exactly as after a crash, and recovery replays the durable
    /// prefix.
    pub(crate) fn record_commit(
        &self,
        version: Version,
        writes: WriteSet,
        ops: &[Op],
        wal_payload: Option<&[u8]>,
        db: DatabaseF,
    ) -> Result<()> {
        // Cache invalidation first: evict the written keys and advance
        // the watermark before this commit's version becomes servable
        // (readers at this version miss until the watermark covers it —
        // see `crate::cache` for why that ordering is the safe one).
        if let Some(cache) = &self.cache {
            cache.invalidate(version, &writes);
        }
        {
            let mut log = self.log.lock();
            let at = log
                .iter()
                .rposition(|(v, _)| *v <= version)
                .map(|i| i + 1)
                .unwrap_or(0);
            log.insert(at, (version, writes));
            if log.len() > self.log_cap {
                let excess = log.len() - self.log_cap;
                log.drain(..excess);
            }
        }
        self.history.record(version, db.clone());
        // Maintain registered views before the WAL section: the commit is
        // installed and in the history, so views must see it even if the
        // durability acknowledgement below fails. Per-view maintenance
        // errors never fail the commit (they poison that view only).
        self.views.observe(version, ops, &db);
        if let (Some(d), Some(payload)) = (self.durable.as_ref(), wal_payload) {
            {
                let mut wal = d.wal();
                let ack = wal
                    .append(version, payload)
                    .map_err(|e| FdmError::Durability {
                        detail: e.to_string(),
                    })?;
                // This append may have drained buffered successors past
                // their covering fsync — wake any committer parked on
                // the durable watermark below.
                d.wal_synced.notify_all();
                if matches!(d.cfg.sync, SyncPolicy::Always) && !ack.durable {
                    // Out-of-order arrival: the record sits in the
                    // pending buffer behind a version gap, with no fsync
                    // covering it. `Always` promises an acknowledged
                    // commit is on the medium, so block until the
                    // gap-filling committer writes and syncs past this
                    // version — and fail the commit (durability NOT
                    // acknowledged) if it never does, e.g. because that
                    // committer died between its install and its append.
                    let deadline = std::time::Instant::now() + d.cfg.gap_sync_timeout;
                    while wal.synced_version() < version {
                        let left = deadline.saturating_duration_since(std::time::Instant::now());
                        if left.is_zero() {
                            return Err(FdmError::Durability {
                                detail: format!(
                                    "commit v{version} is buffered behind a WAL version gap \
                                     (durable watermark v{}) that did not fill within {:?}; \
                                     durability cannot be acknowledged",
                                    wal.synced_version(),
                                    d.cfg.gap_sync_timeout
                                ),
                            });
                        }
                        wal = d
                            .wal_synced
                            .wait_timeout(wal, left)
                            .unwrap_or_else(|e| e.into_inner())
                            .0;
                    }
                }
            }
            let due = {
                let mut since = d.since_checkpoint.lock();
                *since += 1;
                match d.cfg.checkpoint_every {
                    Some(every) if *since >= every => {
                        *since = 0;
                        true
                    }
                    _ => false,
                }
            };
            if due {
                self.write_checkpoint_now(d, version, &db)
                    .map_err(|e| FdmError::Durability {
                        detail: e.to_string(),
                    })?;
            }
        }
        Ok(())
    }

    /// Encodes a transaction's recorded ops for the WAL — *before* the
    /// CAS loop, so an unserializable write (a closure-valued assign) or
    /// a writeset too large for the record format fails the commit
    /// before anything installs. `None` on an in-memory store.
    pub(crate) fn encode_for_wal(&self, ops: &[Op]) -> Result<Option<Vec<u8>>> {
        if self.durable.is_none() {
            return Ok(None);
        }
        let wal_ops: Vec<WalOp> = ops.iter().map(WalOp::from).collect();
        let payload = encode_ops(&wal_ops).map_err(|e| FdmError::Durability {
            detail: e.to_string(),
        })?;
        check_record_payload(payload.len()).map_err(|e| FdmError::Durability {
            detail: e.to_string(),
        })?;
        Ok(Some(payload))
    }

    fn write_checkpoint_now(
        &self,
        d: &Durable,
        version: Version,
        db: &DatabaseF,
    ) -> Result<(), DurabilityError> {
        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(plan) = d.plan.lock().clone() {
            write_checkpoint_faulty(&d.cfg.dir, version, db, &plan)?;
            prune_checkpoints(&d.cfg.dir, d.cfg.retain_checkpoints)?;
            return Ok(());
        }
        write_checkpoint(&d.cfg.dir, version, db)?;
        prune_checkpoints(&d.cfg.dir, d.cfg.retain_checkpoints)?;
        Ok(())
    }

    /// `true` if this store has a WAL (built by [`Store::create`] /
    /// [`Store::open`]).
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The highest version known durable (its fsync ran), or `None` on
    /// an in-memory store. Under [`fdm_durability::SyncPolicy::Always`]
    /// this equals [`Store::version`] after every commit; under group
    /// commit it can lag by up to the group size.
    pub fn durable_version(&self) -> Option<Version> {
        self.durable.as_ref().map(|d| d.wal().synced_version())
    }

    /// Forces an fsync of the WAL, draining any group-commit window.
    /// A no-op on an in-memory store.
    pub fn sync_wal(&self) -> Result<(), DurabilityError> {
        match &self.durable {
            Some(d) => d.wal().sync(),
            None => Ok(()),
        }
    }

    /// Writes a checkpoint of the current committed state, applies
    /// retention (pruning old checkpoints and fully-covered WAL
    /// segments), and returns the checkpointed version.
    pub fn checkpoint(&self) -> Result<Version, DurabilityError> {
        let d = self
            .durable
            .as_ref()
            .ok_or_else(|| DurabilityError::Corrupt {
                detail: "checkpoint() on an in-memory store".into(),
            })?;
        let (version, db) = self.snapshot_versioned();
        self.write_checkpoint_now(d, version, &db)?;
        *d.since_checkpoint.lock() = 0;
        Ok(version)
    }

    /// Offline-style fsck of this store's durability directory: validates
    /// every checkpoint, scans every WAL segment, and reports what
    /// recovery would do. Reads the files as they are on disk; call
    /// [`Store::sync_wal`] first if you want the report to cover the
    /// current group-commit window.
    pub fn verify_integrity(&self) -> Result<IntegrityReport, DurabilityError> {
        let d = self
            .durable
            .as_ref()
            .ok_or_else(|| DurabilityError::Corrupt {
                detail: "verify_integrity() on an in-memory store".into(),
            })?;
        fdm_durability::verify_integrity(&d.cfg)
    }
}

#[cfg(any(test, feature = "fault-injection"))]
impl Store {
    /// Installs a fault plan; subsequent commits consult it. Replaces any
    /// previous plan.
    pub fn install_fault_plan(&self, plan: Arc<FaultPlan>) {
        *self.faults.lock() = Some(plan);
    }

    /// Removes the installed fault plan, if any.
    pub fn clear_fault_plan(&self) {
        *self.faults.lock() = None;
    }

    /// Installs a crash plan on the durability layer: subsequent WAL
    /// writes, fsyncs, and checkpoint writes consult it (torn writes,
    /// bit flips, duplicated tail records, dropped fsyncs). A no-op on
    /// an in-memory store. Crash plans are sticky — after a simulated
    /// crash the store keeps failing with `Crashed`; "reboot" by
    /// dropping the store and calling [`Store::open`].
    pub fn install_crash_plan(&self, plan: Arc<CrashPlan>) {
        if let Some(d) = &self.durable {
            d.wal().install_crash_plan(Arc::clone(&plan));
            *d.plan.lock() = Some(plan);
        }
    }

    fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.faults.lock().clone()
    }

    pub(crate) fn fault_take_conflict(&self, v: Version) -> bool {
        self.fault_plan().is_some_and(|p| p.take_conflict(v))
    }

    pub(crate) fn fault_poisoned(&self, v: Version) -> bool {
        self.fault_plan().is_some_and(|p| p.poisoned(v))
    }

    pub(crate) fn fault_delay_before_cas(&self, v: Version) {
        if let Some(delay) = self.fault_plan().and_then(|p| p.delay_for(v)) {
            std::thread::sleep(delay);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdm_core::RelationF;
    use std::sync::mpsc;
    use std::time::Duration;

    fn bank() -> Arc<Store> {
        let accounts = RelationF::new("accounts", &["id"])
            .insert(
                Value::Int(1),
                TupleF::builder("a").attr("balance", 100).build(),
            )
            .unwrap();
        Store::new(DatabaseF::new("bank").with_relation(accounts))
    }

    #[test]
    fn snapshot_is_stable_across_commits() {
        let store = bank();
        let before = store.snapshot();
        store
            .upsert_one(
                "accounts",
                Value::Int(2),
                TupleF::builder("a").attr("balance", 7).build(),
            )
            .unwrap();
        assert_eq!(before.relation("accounts").unwrap().len(), 1);
        assert_eq!(store.snapshot().relation("accounts").unwrap().len(), 2);
        assert_eq!(store.version(), 1);
        let (v, db) = store.snapshot_versioned();
        assert_eq!(v, 1);
        assert_eq!(db.relation("accounts").unwrap().len(), 2);
    }

    #[test]
    fn autocommit_retries_until_success() {
        let store = bank();
        let out = store
            .autocommit(3, |txn| {
                txn.modify_attr("accounts", &Value::Int(1), "balance", |v| {
                    v.add(&Value::Int(1))
                })?;
                Ok(42)
            })
            .unwrap();
        assert_eq!(out, 42);
    }

    #[test]
    fn run_reports_a_commit_outcome() {
        let store = bank();
        let (out, outcome) = store
            .run(|txn| {
                txn.update_attr("accounts", &Value::Int(1), "balance", 7)?;
                Ok("done")
            })
            .unwrap();
        assert_eq!(out, "done");
        assert_eq!(outcome.version, 1);
        assert_eq!(outcome.attempts, 1);
        assert!(outcome.conflicts.is_empty());
    }

    #[test]
    fn run_rederives_after_a_genuine_conflict() {
        // two closure-retried writers to the same key: both must land,
        // and the loser's re-execution must see the winner's value (no
        // lost update)
        let store = bank();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    for _ in 0..20 {
                        store
                            .run(|txn| {
                                txn.modify_attr("accounts", &Value::Int(1), "balance", |v| {
                                    v.add(&Value::Int(1))
                                })
                            })
                            .unwrap();
                    }
                });
            }
        });
        let bal = store
            .snapshot()
            .relation("accounts")
            .unwrap()
            .lookup(&Value::Int(1))
            .unwrap()
            .get("balance")
            .unwrap();
        assert_eq!(bal, Value::Int(140), "all 40 increments applied");
    }

    #[test]
    fn as_of_replays_the_commit_history() {
        let store = bank();
        for i in 0..5i64 {
            store
                .run(|txn| txn.update_attr("accounts", &Value::Int(1), "balance", 100 + i))
                .unwrap();
        }
        assert_eq!(store.version(), 5);
        for v in 0..=5u64 {
            let db = store.as_of(v).unwrap();
            let bal = db
                .relation("accounts")
                .unwrap()
                .lookup(&Value::Int(1))
                .unwrap()
                .get("balance")
                .unwrap();
            let expect = if v == 0 { 100 } else { 100 + v as i64 - 1 };
            assert_eq!(bal, Value::Int(expect), "as_of({v})");
        }
        // compaction bounds the log and reports typed eviction below it
        assert_eq!(store.compact_history(2), 4);
        assert!(store.as_of(5).is_ok());
        let err = store.as_of(1).unwrap_err();
        assert!(matches!(
            err,
            FdmError::VersionEvicted {
                version: 1,
                oldest: Some(4),
                newest: Some(5)
            }
        ));
    }

    #[test]
    fn forced_conflict_is_survived_by_the_default_policy() {
        let store = bank();
        let plan = FaultPlan::new();
        plan.force_conflict_at(0);
        store.install_fault_plan(Arc::clone(&plan));
        // the old code surfaced the conflict immediately; the policy-driven
        // commit replays and wins on the second attempt
        let mut txn = store.begin();
        txn.update_attr("accounts", &Value::Int(1), "balance", 1)
            .unwrap();
        let outcome = txn.commit_with(&CommitPolicy::default()).unwrap();
        assert_eq!(outcome.version, 1);
        assert_eq!(outcome.attempts, 2);
        assert_eq!(
            outcome.conflicts,
            vec![("<injected>".to_string(), "v0".to_string())]
        );
        assert_eq!(plan.injected_conflicts(), 1);
    }

    #[test]
    fn forced_conflict_fails_a_no_retry_policy() {
        let store = bank();
        let plan = FaultPlan::new();
        plan.force_conflict_at(0);
        store.install_fault_plan(plan);
        let mut txn = store.begin();
        txn.update_attr("accounts", &Value::Int(1), "balance", 1)
            .unwrap();
        let err = txn.commit_with(&CommitPolicy::no_retry()).unwrap_err();
        assert!(
            matches!(
                err,
                FdmError::TransactionRetriesExhausted { attempts: 1, .. }
            ),
            "{err:?}"
        );
        assert_eq!(store.version(), 0, "nothing installed");
    }

    #[test]
    fn poisoned_writeset_exhausts_bounded_retries() {
        let store = bank();
        let plan = FaultPlan::new();
        plan.poison_writeset_at(0);
        store.install_fault_plan(Arc::clone(&plan));
        let mut txn = store.begin();
        txn.update_attr("accounts", &Value::Int(1), "balance", 1)
            .unwrap();
        let policy = CommitPolicy::default()
            .with_max_attempts(4)
            .with_backoff(Duration::from_micros(1), Duration::from_micros(10));
        let err = txn.commit_with(&policy).unwrap_err();
        assert!(
            matches!(
                err,
                FdmError::TransactionRetriesExhausted { attempts: 4, .. }
            ),
            "{err:?}"
        );
        assert_eq!(plan.injected_poisons(), 4, "every attempt was poisoned");
        assert_eq!(store.version(), 0);
        // clearing the plan restores normal commits
        store.clear_fault_plan();
        store
            .run(|txn| txn.update_attr("accounts", &Value::Int(1), "balance", 2))
            .unwrap();
        assert_eq!(store.version(), 1);
    }

    #[test]
    fn commit_timeout_is_enforced() {
        let store = bank();
        let plan = FaultPlan::new();
        plan.poison_writeset_at(0);
        store.install_fault_plan(plan);
        let mut txn = store.begin();
        txn.update_attr("accounts", &Value::Int(1), "balance", 1)
            .unwrap();
        let policy = CommitPolicy::default()
            .with_max_attempts(1_000_000)
            .with_backoff(Duration::from_micros(50), Duration::from_micros(200))
            .with_timeout(Duration::from_millis(5));
        let err = txn.commit_with(&policy).unwrap_err();
        assert!(
            matches!(err, FdmError::TransactionTimeout { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn delay_fault_widens_the_race_window_but_commit_still_lands() {
        let store = bank();
        let plan = FaultPlan::new();
        plan.delay_before_cas_at(0, Duration::from_millis(1));
        store.install_fault_plan(Arc::clone(&plan));
        store
            .run(|txn| txn.update_attr("accounts", &Value::Int(1), "balance", 5))
            .unwrap();
        assert!(plan.injected_delays() >= 1);
        assert_eq!(store.version(), 1);
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fdm-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_store_survives_a_restart() {
        let dir = scratch("restart");
        let accounts = RelationF::new("accounts", &["id"])
            .insert(
                Value::Int(1),
                TupleF::builder("a").attr("balance", 100).build(),
            )
            .unwrap();
        let db = DatabaseF::new("bank").with_relation(accounts);
        let cfg = StoreConfig {
            durability: Some(fdm_durability::DurabilityConfig::new(&dir)),
            ..StoreConfig::default()
        };
        let store = Store::create(db, cfg).unwrap();
        assert!(store.is_durable());
        for i in 1..=5i64 {
            store
                .run(|txn| txn.update_attr("accounts", &Value::Int(1), "balance", 100 + i))
                .unwrap();
        }
        assert_eq!(store.version(), 5);
        assert_eq!(
            store.durable_version(),
            Some(5),
            "Always policy: every ack durable"
        );
        let report = store.verify_integrity().unwrap();
        assert_eq!(report.replay_to, 5);
        assert!(!report.torn_tail);
        drop(store);

        let back = Store::open(&dir).unwrap();
        assert_eq!(back.version(), 5);
        let bal = back
            .snapshot()
            .relation("accounts")
            .unwrap()
            .lookup(&Value::Int(1))
            .unwrap()
            .get("balance")
            .unwrap();
        assert_eq!(bal, Value::Int(105));
        // history and commit log were rebuilt: time travel + new commits work
        assert_eq!(
            back.as_of(2)
                .unwrap()
                .relation("accounts")
                .unwrap()
                .lookup(&Value::Int(1))
                .unwrap()
                .get("balance")
                .unwrap(),
            Value::Int(102)
        );
        back.run(|txn| txn.update_attr("accounts", &Value::Int(1), "balance", 1))
            .unwrap();
        assert_eq!(back.version(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_a_populated_directory_and_checkpoint_bounds_replay() {
        let dir = scratch("create-twice");
        let db = DatabaseF::new("d").with_relation(RelationF::new("r", &["k"]));
        let cfg = || StoreConfig {
            durability: Some(fdm_durability::DurabilityConfig::new(&dir)),
            ..StoreConfig::default()
        };
        let store = Store::create(db.clone(), cfg()).unwrap();
        store
            .run(|txn| {
                txn.upsert(
                    "r",
                    Value::Int(1),
                    TupleF::builder("t").attr("v", 1).build(),
                )
            })
            .unwrap();
        let err = match Store::create(db, cfg()) {
            Err(e) => e,
            Ok(_) => panic!("create on a populated directory must fail"),
        };
        assert!(matches!(
            err,
            fdm_durability::DurabilityError::Corrupt { .. }
        ));
        // an explicit checkpoint anchors recovery at the current version
        assert_eq!(store.checkpoint().unwrap(), 1);
        let report = store.verify_integrity().unwrap();
        assert_eq!(report.checkpoint_version, 1);
        drop(store);
        let back = Store::open(&dir).unwrap();
        assert_eq!(back.version(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unserializable_write_fails_before_install() {
        let dir = scratch("unserializable");
        let db = DatabaseF::new("d").with_relation(RelationF::new("r", &["k"]));
        let store = Store::create(
            db,
            StoreConfig {
                durability: Some(fdm_durability::DurabilityConfig::new(&dir)),
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let mut txn = store.begin();
        txn.assign(
            "f",
            fdm_core::FnValue::Lambda(Arc::new(fdm_core::LambdaF::unary(
                "f",
                fdm_core::Domain::Typed(fdm_core::ValueType::Int),
                |v| Ok(v.clone()),
            ))),
        )
        .unwrap();
        let err = txn.commit().unwrap_err();
        assert!(
            matches!(err, FdmError::Durability { .. }),
            "lambda assigns cannot be logged: {err}"
        );
        assert_eq!(store.version(), 0, "nothing installed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression pin for the `SyncPolicy::Always` acknowledgement
    /// contract: a commit whose WAL record arrives out of version order
    /// (parked in the pending buffer, `AppendAck::durable == false`)
    /// must not return `Ok` until the gap-filling append's fsync covers
    /// it.
    #[test]
    fn out_of_order_wal_append_blocks_until_durable() {
        let dir = scratch("gap-fill");
        let store = Store::create(
            DatabaseF::new("d"),
            StoreConfig {
                durability: Some(fdm_durability::DurabilityConfig::new(&dir)),
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let payload = store.encode_for_wal(&[]).unwrap().unwrap();
        let db = store.snapshot();
        // v2 reaches the WAL first, as if its committer won the race to
        // record_commit after losing the install race
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            let v2_store = Arc::clone(&store);
            let v2_payload = payload.clone();
            let v2_db = db.clone();
            let handle = s.spawn(move || {
                let out = v2_store.record_commit(
                    2,
                    WriteSet::from_ops(&[]),
                    &[],
                    Some(&v2_payload),
                    v2_db,
                );
                tx.send(()).unwrap();
                out
            });
            assert!(
                rx.recv_timeout(Duration::from_millis(100)).is_err(),
                "v2 must stay parked while the v1 gap is open"
            );
            store
                .record_commit(1, WriteSet::from_ops(&[]), &[], Some(&payload), db.clone())
                .unwrap();
            rx.recv_timeout(Duration::from_secs(10))
                .expect("filling the gap must release the parked committer");
            handle.join().unwrap().unwrap();
        });
        assert_eq!(store.durable_version(), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The dual: if the gap never fills (the missing version's committer
    /// died between its install and its WAL append), the parked commit
    /// fails with a durability error — it is never falsely acknowledged.
    #[test]
    fn unfilled_wal_gap_fails_the_commit_instead_of_acking() {
        let dir = scratch("gap-timeout");
        let store = Store::create(
            DatabaseF::new("d"),
            StoreConfig {
                durability: Some(
                    fdm_durability::DurabilityConfig::new(&dir)
                        .with_gap_sync_timeout(Duration::from_millis(50)),
                ),
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let payload = store.encode_for_wal(&[]).unwrap().unwrap();
        let db = store.snapshot();
        let err = store
            .record_commit(2, WriteSet::from_ops(&[]), &[], Some(&payload), db)
            .unwrap_err();
        assert!(
            matches!(&err, FdmError::Durability { detail } if detail.contains("version gap")),
            "{err:?}"
        );
        assert_eq!(store.durable_version(), Some(0), "nothing acknowledged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression pin for the commit-log locking discipline: `begin()`
    /// and snapshot reads must never touch the commit-log mutex, so a
    /// stalled committer (or anything else holding the log) cannot block
    /// readers — and long-running readers, holding only persistent
    /// clones, cannot block commits.
    #[test]
    fn begin_and_snapshot_never_take_the_commit_log_lock() {
        let store = bank();
        let guard = store.log.lock(); // a "stalled committer"
        let (tx, rx) = mpsc::channel();
        let reader_store = Arc::clone(&store);
        let handle = std::thread::spawn(move || {
            let txn = reader_store.begin();
            let (v, db) = reader_store.snapshot_versioned();
            let _ = reader_store.as_of(v);
            tx.send((
                txn.base_version(),
                v,
                db.relation("accounts").unwrap().len(),
            ))
            .unwrap();
        });
        let got = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("begin()/snapshot()/as_of() must not block on the commit-log mutex");
        assert_eq!(got, (0, 0, 1));
        drop(guard);
        handle.join().unwrap();

        // and the dual: a long-lived reader (open transaction + snapshot
        // in hand) never blocks a commit
        let long_reader = store.begin();
        let held_snapshot = store.snapshot();
        let (tx, rx) = mpsc::channel();
        let writer_store = Arc::clone(&store);
        let handle = std::thread::spawn(move || {
            let v = writer_store
                .upsert_one(
                    "accounts",
                    Value::Int(9),
                    TupleF::builder("a").attr("balance", 1).build(),
                )
                .unwrap();
            tx.send(v).unwrap();
        });
        let v = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a commit must not block on open readers");
        assert_eq!(v, 1);
        handle.join().unwrap();
        assert_eq!(held_snapshot.relation("accounts").unwrap().len(), 1);
        assert!(long_reader
            .get("accounts", &Value::Int(9))
            .unwrap()
            .is_none());
    }
}
