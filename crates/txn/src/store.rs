//! The transactional store: a versioned root holding the committed
//! database function, the commit sequencer every install runs under —
//! with the commit log it guards, used for snapshot-isolation validation
//! — and the bounded version history behind time-travel reads.

use crate::catalog::{RefreshMode, ViewCatalog};
use crate::history::History;
use crate::txn::Transaction;
use crate::writeset::{apply_ops_replacing, undo_ops, Op, WriteSet};
use fdm_core::{DatabaseF, FdmError, RelationF, Result, TupleF, Value};
use fdm_durability::{
    check_record_payload, encode_ops, list_checkpoints, prune_checkpoints, recover,
    write_checkpoint, DurabilityConfig, DurabilityError, IntegrityReport, Wal, WalOp,
};
use fdm_storage::VersionedRoot;
use fdm_storage::{Backoff, Version};
use parking_lot::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::FaultPlan;
#[cfg(any(test, feature = "fault-injection"))]
use fdm_durability::{write_checkpoint_faulty, CrashPlan};

/// How a commit behaves when it has to be tried again: how many attempts
/// it makes, how it paces them, and when it gives up.
///
/// Installing never races — every commit takes its turn in the store's
/// commit sequencer — so what is left to retry is [`Store::run_with`]
/// re-deriving a transaction after a *genuine* write-write conflict, and
/// (test and `fault-injection` builds only) injected transient faults.
/// The backoff between those attempts is exponential with
/// **deterministic seeded jitter** ([`fdm_storage::Backoff`]): a fixed
/// `jitter_seed` replays the same delay schedule, so contention tests are
/// reproducible, while different seeds desynchronize contending
/// committers. It never runs with the sequencer held.
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
    /// Transient conflicts survived along the way, in display form. The
    /// commit sequencer leaves no install race to lose, so a commit
    /// itself only ever reports injected faults here (`("<injected>",
    /// "v{n}")`, test and `fault-injection` builds); [`Store::run_with`]
    /// adds the keys of the genuine conflicts it re-derived after. A
    /// genuine first-committer-wins conflict met by a bare commit is
    /// terminal and carries its keys on
    /// [`FdmError::TransactionConflict`] instead.
    pub conflicts: Vec<(String, String)>,
}

/// Construction-time knobs for a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Default policy used by [`Transaction::commit`] and
    /// [`Store::run`].
    pub policy: CommitPolicy,
    /// Versions retained for [`Store::as_of`] time travel. Each retained
    /// version costs its commit's undo — the recorded ops inverted, with
    /// the tuples they replaced — not a root: the path a commit superseded
    /// is freed a few commits later, and a past root is built only when
    /// asked for.
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
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            policy: CommitPolicy::default(),
            history_capacity: 1024,
            log_cap: 4096,
            durability: None,
        }
    }
}

/// The durability half of a store: the live WAL writer plus checkpoint
/// bookkeeping. Present only on stores built by [`Store::create`] /
/// [`Store::open`].
pub(crate) struct Durable {
    /// Directory, fsync cadence, retention — fixed at open time.
    cfg: DurabilityConfig,
    /// The append half of the write-ahead log; internally synchronized
    /// (see [`Wal`] for who writes and fsyncs a group).
    wal: Wal,
    /// Commits since the last checkpoint (drives
    /// [`DurabilityConfig::checkpoint_every`]).
    since_checkpoint: Mutex<u64>,
    /// Crash plan for checkpoint writes; the WAL writer holds its own
    /// copy (test/fault-injection builds only).
    #[cfg(any(test, feature = "fault-injection"))]
    plan: Mutex<Option<Arc<CrashPlan>>>,
}

/// A transactional FDM store.
///
/// Readers take O(1) snapshots (the database function is persistent);
/// writers run under snapshot isolation: each transaction works on its
/// snapshot, and at commit time its write set is validated against every
/// transaction that committed after the snapshot was taken. Disjoint
/// writers merge (their recorded operations replay onto the latest root);
/// overlapping writers lose with [`FdmError::TransactionConflict`] —
/// first committer wins. Commits take turns in one short **commit
/// sequencer** (validate, build, install, log — nothing that sleeps or
/// makes a syscall), so versions reach the commit log, the history and
/// the WAL in order by construction and no install is ever lost to a
/// race.
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
    /// The **commit sequencer**: the one lock every install runs under
    /// ([`Store::install`]), guarding the commit log. Acquire it through
    /// [`Store::sequencer`] only.
    pub(crate) sequencer: Mutex<CommitLog>,
    /// Maximum retained commit-log entries.
    pub(crate) log_cap: usize,
    /// Default commit policy (see [`Transaction::commit_with`] to
    /// override per commit).
    pub(crate) policy: CommitPolicy,
    /// The head root and each retained version's undo, for time travel;
    /// every write commit pushes one.
    pub(crate) history: History,
    /// The WAL + checkpoint machinery, when this store is durable.
    pub(crate) durable: Option<Durable>,
    /// Maintained views subscribed to commits (see [`Store::register_view`]).
    pub(crate) views: ViewCatalog,
    /// Injected faults, if a plan is installed (test/fault-injection
    /// builds only).
    #[cfg(any(test, feature = "fault-injection"))]
    pub(crate) faults: Mutex<Option<Arc<FaultPlan>>>,
}

/// The commit log: `(version, write set)` of the newest commits, oldest
/// first. Only the sequencer's holder appends, one entry per installed
/// version, so it is gapless and ends at the store's current version.
/// Trimming below the oldest version any conflict check can need would
/// require tracking active transactions; we keep a bounded tail instead,
/// which is correct as long as snapshots are not older than the tail —
/// enforced in commit validation.
pub(crate) type CommitLog = VecDeque<(Version, Arc<WriteSet>)>;

/// `try_lock` rounds a committer spins for the sequencer before it starts
/// yielding. The section is a few microseconds, a futex wake 50–90 µs on
/// a small VM: a blocked committer would spend longer being woken than
/// the holder spends inside.
const SEQUENCER_SPINS: usize = 256;
/// `yield_now` rounds after the spins and before the blocking `lock`.
const SEQUENCER_YIELDS: usize = 64;

/// One transaction decomposed for commit.
pub(crate) struct Member {
    /// Where its result goes in the caller's outcome slice.
    pub(crate) index: usize,
    pub(crate) base_version: Version,
    pub(crate) writes: Arc<WriteSet>,
    /// Its recorded operations, as a range of [`Group::ops`].
    ops: Range<usize>,
}

/// What one installed version is made of: one transaction (a plain
/// commit) or several with pairwise disjoint write sets (a batch).
#[derive(Default)]
pub(crate) struct Group {
    pub(crate) members: Vec<Member>,
    /// Every member's recorded operations, in member order.
    pub(crate) ops: Vec<Op>,
    /// Union of the members' write sets ([`Group::union_writes`]).
    writes: Arc<WriteSet>,
    /// The encoded `ops`, on a durable store ([`Store::seal`]).
    payload: Option<Vec<u8>>,
}

impl Group {
    pub(crate) fn push(
        &mut self,
        index: usize,
        base_version: Version,
        writes: WriteSet,
        ops: Vec<Op>,
    ) {
        let start = self.ops.len();
        self.ops.extend(ops);
        self.members.push(Member {
            index,
            base_version,
            writes: Arc::new(writes),
            ops: start..self.ops.len(),
        });
    }

    /// Sets `writes` to the union of the members' write sets.
    fn union_writes(&mut self) {
        self.writes = match self.members.as_slice() {
            [only] => Arc::clone(&only.writes),
            members => {
                let mut union = WriteSet::default();
                for m in members {
                    union.merge(&m.writes);
                }
                Arc::new(union)
            }
        };
    }

    /// Drops the operations of members no longer in the group.
    fn compact(&mut self) {
        let mut ops = Vec::with_capacity(self.ops.len());
        for m in &mut self.members {
            let start = ops.len();
            ops.extend_from_slice(&self.ops[m.ops.clone()]);
            m.ops = start..ops.len();
        }
        self.ops = ops;
    }
}

/// A transaction's working copy, brought to its commit as the candidate
/// root: it installs as it is when nothing committed since its snapshot.
pub(crate) struct Working {
    pub(crate) db: DatabaseF,
    /// The tuple each recorded op replaced, beside it (see
    /// `Transaction`).
    pub(crate) replaced: Vec<Option<Arc<TupleF>>>,
    /// `false` when the commit's delta cannot trust `replaced`.
    pub(crate) plain: bool,
}

/// What [`Store::install`] hands to the post-install steps.
pub(crate) struct Installed {
    pub(crate) version: Version,
    /// The root the install replaced — with `db`, the two sides of the
    /// commit's delta.
    before: DatabaseF,
    db: DatabaseF,
    /// The tuple each of the group's ops replaced, when the working copy
    /// installed as it is and wrote only plain stored maps: the commit's
    /// delta is then read off its own writes. `None` for a replayed group
    /// and a batch, whose delta looks its keys up in `before` and `db`.
    replaced: Option<Vec<Option<Arc<TupleF>>>>,
    /// The WAL's answer to the enqueue, on a durable store: `Ok(true)`
    /// means this committer closes its WAL group.
    wal: Option<Result<bool, DurabilityError>>,
}

fn durability(e: DurabilityError) -> FdmError {
    FdmError::Durability {
        detail: e.to_string(),
    }
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
            sequencer: Mutex::new(VecDeque::new()),
            log_cap: config.log_cap.max(1),
            policy: config.policy,
            history,
            durable,
            views: ViewCatalog::default(),
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
                wal,
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
                wal,
                since_checkpoint: Mutex::new(0),
                #[cfg(any(test, feature = "fault-injection"))]
                plan: Mutex::new(None),
            }),
        );
        for commit in rec.commits {
            // the same install routine live commits use, minus the WAL
            // append: these records are already on disk
            let mut group = Group::default();
            let ops: Vec<Op> = commit.ops.into_iter().map(Op::from).collect();
            group.push(0, commit.version - 1, WriteSet::from_ops(&ops), ops);
            group.union_writes();
            let replayed = match store.install(&mut group, None, &mut [None]) {
                // nothing was enqueued, so this is the catalog bookkeeping
                // alone
                Ok(Some(installed)) if installed.version == commit.version => {
                    store.record_commit(installed, &group)
                }
                Ok(_) => Err(FdmError::Other(format!(
                    "it does not follow v{}",
                    store.version()
                ))),
                Err(e) => Err(e),
            };
            replayed.map_err(|e| DurabilityError::Corrupt {
                detail: format!("replaying recovered commit v{}: {e}", commit.version),
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
    /// version ≤ `version`, from the store's [`History`]. Errors with
    /// [`FdmError::VersionEvicted`] below the retained window. The head,
    /// or a version asked for before, is one clone; any other version is
    /// built once by applying undos to the nearest newer root the history
    /// knows, and kept until it is evicted. Never blocks writers: the
    /// history read lock is held only to clone a root and the undos.
    pub fn as_of(&self, version: Version) -> Result<DatabaseF> {
        self.history.as_of(version)
    }

    /// The version history behind [`Store::as_of`].
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Bounds the time-travel log to the newest `keep_last_n` versions;
    /// returns how many entries were evicted. They are freed after the
    /// history lock is released, so commits do not wait on the frees.
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
    /// Deliberately touches only this thread's lane of the versioned root
    /// — never the commit sequencer — so a reader-heavy workload cannot
    /// stall committers and a stalled committer cannot stall `begin()`.
    /// Pinned by `begin_and_snapshot_never_take_the_commit_sequencer`
    /// below.
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
    /// seeded backoff (slept between executions, with no lock held).
    /// Returns the closure's value and the final [`CommitOutcome`]
    /// (attempts = closure executions).
    pub fn run_with<T>(
        self: &Arc<Self>,
        policy: &CommitPolicy,
        mut f: impl FnMut(&mut Transaction) -> Result<T>,
    ) -> Result<(T, CommitOutcome)> {
        let start = Instant::now();
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
        self.sequencer().len()
    }

    /// The versions in the validation log, oldest first, read with the
    /// commit sequencer held: gapless, and ending at a version no older
    /// than any [`Store::version`] read before the call — a version is
    /// never installed without being logged in the same critical section.
    pub fn log_versions(&self) -> Vec<Version> {
        self.sequencer().iter().map(|(v, _)| *v).collect()
    }

    /// Point read of one tuple at the current version:
    /// [`Store::snapshot`]`.relation(rel)?.lookup(key)` without the
    /// snapshot — the tuple is looked up in the root where it stands.
    pub fn read_point(&self, rel: &str, key: &Value) -> Result<Option<Arc<TupleF>>> {
        self.read_point_versioned(rel, key).map(|(_, t)| t)
    }

    /// [`Store::read_point`], also reporting the version the read was
    /// served at. It borrows the committed root instead of snapshotting
    /// it: it writes this thread's root lane and the refcount of the tuple
    /// it returns, nothing else.
    ///
    /// No user code runs with the lane held. A plain stored or multi body
    /// is a pure tree descent and is looked up under the guard; a computed
    /// or hybrid body calls the relation's closure, which may read this
    /// store again — a recursive read of the lane deadlocks once a commit
    /// waits between the two — so that relation is cloned out and looked
    /// up after release.
    pub fn read_point_versioned(
        &self,
        rel: &str,
        key: &Value,
    ) -> Result<(Version, Option<Arc<TupleF>>)> {
        let (version, found, computed) = self.root.read_with(|current| -> Result<_> {
            let relation = current.value.relation_ref(rel)?;
            Ok(if relation.is_plain_stored() || relation.is_multi() {
                (current.version, relation.lookup(key), None)
            } else {
                (current.version, None, Some(Arc::clone(relation)))
            })
        })?;
        Ok((version, computed.map_or(found, |r| r.lookup(key))))
    }

    /// Acquires the commit sequencer: bounded `try_lock` spinning, then
    /// yielding, then a blocking `lock` (see [`SEQUENCER_SPINS`]).
    pub(crate) fn sequencer(&self) -> MutexGuard<'_, CommitLog> {
        for _ in 0..SEQUENCER_SPINS {
            if let Some(log) = self.sequencer.try_lock() {
                return log;
            }
            std::hint::spin_loop();
        }
        for _ in 0..SEQUENCER_YIELDS {
            if let Some(log) = self.sequencer.try_lock() {
                return log;
            }
            std::thread::yield_now();
        }
        self.sequencer.lock()
    }

    /// First-committer-wins validation of a write set staged at snapshot
    /// `base` against the commits in `(base, current]`, with the sequencer
    /// held. The log is gapless and ends at `current` — a version is
    /// installed and logged in one critical section — so those commits
    /// are exactly its last `current - base` entries. Only a log that has
    /// trimmed them away makes a snapshot too old to validate.
    fn validate(
        &self,
        log: &CommitLog,
        base: Version,
        current: Version,
        writes: &WriteSet,
    ) -> Result<()> {
        let since = (current - base) as usize;
        if since > log.len() {
            return Err(FdmError::TransactionConflict {
                detail: format!(
                    "snapshot v{base} is older than the retained commit log (oldest v{})",
                    current + 1 - log.len() as Version
                ),
                keys: Vec::new(),
            });
        }
        for (v, ws) in log.range(log.len() - since..) {
            if writes.conflicts_with(ws) {
                return Err(FdmError::TransactionConflict {
                    detail: format!(
                        "write-write conflict with commit v{v} on {}",
                        writes.describe_overlap(ws)
                    ),
                    keys: writes.conflict_keys(ws),
                });
            }
        }
        Ok(())
    }

    /// Commits `group` as one version — the path every write takes:
    /// [`Transaction::commit_with`] brings a group of one and its working
    /// copy, [`Store::commit_batch`] groups of many. Writes each member's
    /// result into `outcomes[member.index]`.
    ///
    /// Outside the sequencer, before: the WAL payload is encoded, so an
    /// unserializable or oversized write fails before anything installs.
    /// Inside: [`Store::install`]. Outside, after:
    /// [`Store::record_commit`]. The loop re-enters only after an
    /// injected fault (test and `fault-injection` builds): a genuine
    /// conflict is terminal for its member and nothing else can lose.
    pub(crate) fn commit_group(
        &self,
        mut group: Group,
        working: Option<Working>,
        policy: &CommitPolicy,
        outcomes: &mut [Option<Result<CommitOutcome>>],
    ) {
        let committed = self.try_commit_group(&mut group, working, policy, outcomes);
        // `Ok(None)`: every member lost validation and has its own error
        if let Some(outcome) = committed.transpose() {
            for m in &group.members {
                outcomes[m.index] = Some(outcome.clone());
            }
        }
    }

    fn try_commit_group(
        &self,
        group: &mut Group,
        working: Option<Working>,
        policy: &CommitPolicy,
        outcomes: &mut [Option<Result<CommitOutcome>>],
    ) -> Result<Option<CommitOutcome>> {
        if group.members.is_empty() {
            return Ok(None);
        }
        self.seal(group)?;
        // the retry clock and the backoff schedule start with the first
        // fault: a commit that meets none pays for neither
        let mut pacing = None;
        let mut attempts = 0usize;
        let mut conflicts: Vec<(String, String)> = Vec::new();
        let installed = loop {
            attempts += 1;
            match self.injected_fault() {
                Some(fault) => {
                    conflicts.push(fault);
                    let (start, backoff) =
                        pacing.get_or_insert_with(|| (Instant::now(), policy.backoff()));
                    self.pace(policy, backoff, attempts, *start)?;
                }
                None => break self.install(group, working, outcomes)?,
            }
        };
        let Some(installed) = installed else {
            return Ok(None);
        };
        let version = installed.version;
        self.record_commit(installed, group)?;
        Ok(Some(CommitOutcome {
            version,
            attempts,
            conflicts,
        }))
    }

    /// Fills in what the group installs and logs as a whole: the union of
    /// its members' write sets and, on a durable store, the WAL payload.
    fn seal(&self, group: &mut Group) -> Result<()> {
        group.union_writes();
        group.payload = self.encode_for_wal(&group.ops)?;
        Ok(())
    }

    /// Between-attempt bookkeeping after an injected transient fault:
    /// errors out when the attempt or wall-clock budget is spent,
    /// otherwise sleeps the next backoff delay. Never called with the
    /// sequencer held.
    fn pace(
        &self,
        policy: &CommitPolicy,
        backoff: &mut Backoff,
        attempts: usize,
        start: Instant,
    ) -> Result<()> {
        if attempts >= policy.max_attempts.max(1) {
            return Err(FdmError::TransactionRetriesExhausted {
                attempts,
                detail: format!(
                    "transient commit conflicts persisted at v{}",
                    self.version()
                ),
            });
        }
        if let Some(t) = policy.timeout {
            if start.elapsed() >= t {
                return Err(FdmError::TransactionTimeout {
                    attempts,
                    elapsed_ms: start.elapsed().as_millis() as u64,
                });
            }
        }
        backoff.sleep_next();
        Ok(())
    }

    /// **The install routine** — the one commit transition, run by one
    /// committer at a time under the sequencer: load the root, validate
    /// every member against the log (a loser gets its terminal conflict
    /// and leaves the group), build the candidate — `working` as it is
    /// when the root has not moved since its snapshot, else the group's
    /// ops replayed onto the current root — build its undo from what each
    /// op replaced, install it, append to the commit log, push the undo
    /// and the new head to the history, enqueue the WAL record. Memory
    /// only: no sleep, no syscall, no view maintenance, no checkpoint, no
    /// second replay, and the superseded head the history hands back and
    /// what the log and the history evict are dropped after release. The candidate moves into
    /// `Installed`; the root and the history each take one clone of it.
    ///
    /// `Ok(None)`: no member survived validation and nothing installed.
    pub(crate) fn install(
        &self,
        group: &mut Group,
        working: Option<Working>,
        outcomes: &mut [Option<Result<CommitOutcome>>],
    ) -> Result<Option<Installed>> {
        let mut log = self.sequencer();
        let current = self.root.load();
        let submitted = group.members.len();
        group.members.retain(|m| {
            match self.validate(&log, m.base_version, current.version, &m.writes) {
                Ok(()) => true,
                Err(e) => {
                    outcomes[m.index] = Some(Err(e));
                    false
                }
            }
        });
        if group.members.is_empty() {
            return Ok(None);
        }
        if group.members.len() < submitted {
            // rare: a batch member lost first-committer-wins; what the
            // group installs and logs no longer includes it
            group.compact();
            self.seal(group)?;
        }
        let (db, replaced, plain) = match working {
            Some(w) if group.members[0].base_version == current.version => {
                (w.db, w.replaced, w.plain)
            }
            _ => {
                let (db, replaced) = apply_ops_replacing(&current.value, &group.ops)?;
                (db, replaced, false)
            }
        };
        let undo = undo_ops(&current.value, &db, &group.ops, &replaced);
        let version = self
            .root
            .try_install(current.version, db.clone())
            .expect("only the sequencer's holder installs");
        log.push_back((version, Arc::clone(&group.writes)));
        let trimmed = (log.len() > self.log_cap).then(|| log.pop_front());
        let retired = self.history.push(version, db.clone(), Some(undo));
        let wal = match (&self.durable, &group.payload) {
            (Some(d), Some(payload)) => Some(d.wal.enqueue(version, payload)),
            _ => None,
        };
        drop(log);
        drop((trimmed, retired));
        Ok(Some(Installed {
            version,
            before: current.value,
            db,
            replaced: plain.then_some(replaced),
            wal,
        }))
    }

    /// What follows an install, with the sequencer released: view
    /// maintenance and — on a durable store — the closing of the WAL
    /// group and the checkpoint cadence. Concurrent committers may run
    /// these steps out of version order; the catalog's contiguous
    /// watermark absorbs that.
    ///
    /// A WAL record is written and fsynced by the committer that closes
    /// its group ([`Wal::complete`]): under
    /// [`fdm_durability::SyncPolicy::Always`] that is every committer,
    /// and none returns before an fsync covers its version — never a
    /// false acknowledgement.
    ///
    /// The commit *is* installed whatever happens here; a WAL or
    /// checkpoint failure is surfaced as [`FdmError::Durability`] — the
    /// memory state may be ahead of the log, exactly as after a crash,
    /// and recovery replays the durable prefix.
    fn record_commit(&self, installed: Installed, group: &Group) -> Result<()> {
        let Installed {
            version,
            before,
            db,
            replaced,
            wal,
        } = installed;
        // Maintain registered views before the WAL section: the commit is
        // installed and in the history, so views must see it even if the
        // durability acknowledgement below fails. Per-view maintenance
        // errors never fail the commit (they poison that view only).
        let replaced = replaced.as_deref();
        self.views
            .observe(version, &group.ops, replaced, &before, &db);
        let (Some(d), Some(enqueued)) = (self.durable.as_ref(), wal) else {
            return Ok(());
        };
        if enqueued.map_err(durability)? {
            d.wal.complete(version).map_err(durability)?;
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
                .map_err(durability)?;
        }
        Ok(())
    }

    /// Encodes recorded ops for the WAL — *before* the sequencer, so an
    /// unserializable write (a closure-valued assign) or a writeset too
    /// large for the record format fails the commit before anything
    /// installs. `None` on an in-memory store.
    fn encode_for_wal(&self, ops: &[Op]) -> Result<Option<Vec<u8>>> {
        if self.durable.is_none() {
            return Ok(None);
        }
        let wal_ops: Vec<WalOp> = ops.iter().map(WalOp::from).collect();
        let payload = encode_ops(&wal_ops).map_err(durability)?;
        check_record_payload(payload.len()).map_err(durability)?;
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
    /// this is at least the version of every acknowledged commit; under
    /// group commit it can lag by up to the group size.
    pub fn durable_version(&self) -> Option<Version> {
        self.durable.as_ref().map(|d| d.wal.synced_version())
    }

    /// Writes and fsyncs whatever the WAL has buffered, closing any open
    /// group. A no-op on an in-memory store.
    pub fn sync_wal(&self) -> Result<(), DurabilityError> {
        match &self.durable {
            Some(d) => d.wal.sync(),
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
            d.wal.install_crash_plan(Arc::clone(&plan));
            *d.plan.lock() = Some(plan);
        }
    }

    /// Consults the installed fault plan for the version this commit
    /// attempt observes, before it asks for the sequencer: a forced
    /// conflict or a poisoned write set makes the attempt a transient
    /// loss (returned in [`CommitOutcome::conflicts`] form); a delay is
    /// slept here, so real contenders install in between and the attempt
    /// takes the replay path.
    fn injected_fault(&self) -> Option<(String, String)> {
        let plan = self.faults.lock().clone()?;
        let v = self.version();
        if plan.take_conflict(v) {
            return Some(("<injected>".to_string(), format!("v{v}")));
        }
        if plan.poisoned(v) {
            return Some(("<poisoned>".to_string(), format!("v{v}")));
        }
        if let Some(delay) = plan.delay_for(v) {
            std::thread::sleep(delay);
        }
        None
    }
}

#[cfg(not(any(test, feature = "fault-injection")))]
impl Store {
    /// No fault plan in production builds: a commit attempt never loses.
    fn injected_fault(&self) -> Option<(String, String)> {
        None
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

    /// Spins (yielding) until `cond` holds; panics after ten seconds.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::yield_now();
        }
    }

    fn put(store: &Arc<Store>, k: i64) -> Result<Version> {
        store.upsert_one(
            "r",
            Value::Int(k),
            TupleF::builder("t").attr("v", k).build(),
        )
    }

    /// Replaces `out_of_order_wal_append_blocks_until_durable` and
    /// `unfilled_wal_gap_fails_the_commit_instead_of_acking`. WAL records
    /// can no longer arrive out of order (the sequencer enqueues them),
    /// so what is left to pin is where the I/O happens and what `Always`
    /// acknowledges: a committer held inside its write/fsync by a stalled
    /// medium has already released the sequencer — a second commit
    /// installs behind it — and neither is acknowledged before an fsync
    /// covers it.
    #[test]
    fn wal_io_runs_outside_the_sequencer_and_always_never_acks_early() {
        let dir = scratch("stalled-wal");
        let db = DatabaseF::new("d").with_relation(RelationF::new("r", &["k"]));
        let store = Store::create(
            db,
            StoreConfig {
                durability: Some(
                    fdm_durability::DurabilityConfig::new(&dir).with_checkpoint_every(None),
                ),
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let plan = CrashPlan::new();
        store.install_crash_plan(Arc::clone(&plan));
        let stall = plan.stall();
        let acked = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            let (store, acked) = (&store, &acked);
            for k in 1..=2 {
                s.spawn(move || {
                    put(store, k).unwrap();
                    acked.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                });
                // installed, logged — and out of the sequencer again, though
                // its WAL write has not returned
                wait_until("the commit is installed and the sequencer free", || {
                    store.version() == k as u64 && store.sequencer.try_lock().is_some()
                });
            }
            assert_eq!(store.log_versions(), vec![1, 2]);
            assert_eq!(acked.load(std::sync::atomic::Ordering::SeqCst), 0);
            assert_eq!(store.durable_version(), Some(0), "nothing synced yet");
            drop(stall);
        });
        assert_eq!(store.durable_version(), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The checkpoint cadence runs in the post-install steps too: a
    /// committer stuck writing a checkpoint holds no sequencer.
    #[test]
    fn checkpoints_run_outside_the_sequencer() {
        let dir = scratch("stalled-checkpoint");
        let db = DatabaseF::new("d").with_relation(RelationF::new("r", &["k"]));
        let store = Store::create(
            db,
            StoreConfig {
                durability: Some(
                    fdm_durability::DurabilityConfig::new(&dir)
                        .with_sync(fdm_durability::SyncPolicy::Never)
                        .with_checkpoint_every(Some(1)),
                ),
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let plan = CrashPlan::new();
        store.install_crash_plan(Arc::clone(&plan));
        let stall = plan.stall();
        std::thread::scope(|s| {
            let store = &store;
            s.spawn(move || put(store, 1).unwrap());
            wait_until("the commit is installed and the sequencer free", || {
                store.version() == 1 && store.sequencer.try_lock().is_some()
            });
            assert_eq!(store.log_versions(), vec![1]);
            drop(stall);
        });
        assert_eq!(store.verify_integrity().unwrap().checkpoint_version, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The one sleep left on the commit path — the backoff after an
    /// injected fault, and the injected delay itself — happens before the
    /// committer asks for the sequencer.
    #[test]
    fn no_sleep_holds_the_sequencer() {
        let store = bank();
        let plan = FaultPlan::new();
        plan.delay_before_cas_at(0, Duration::from_millis(200));
        store.install_fault_plan(Arc::clone(&plan));
        std::thread::scope(|s| {
            let store = &store;
            s.spawn(move || {
                store
                    .run(|txn| txn.update_attr("accounts", &Value::Int(1), "balance", 5))
                    .unwrap()
            });
            wait_until("the committer sleeps", || plan.injected_delays() == 1);
            assert!(store.sequencer.try_lock().is_some());
        });
        assert_eq!(store.version(), 1);
    }

    /// `compact_history` frees what it evicts after it has released the
    /// history lock, which every install takes inside the sequencer: a
    /// commit does not wait for a compaction's frees. The evicted value
    /// here is a computed relation whose closure blocks in its `Drop`
    /// until the test releases it.
    #[test]
    fn compaction_frees_after_releasing_the_history_lock() {
        struct SlowDrop {
            entered: mpsc::Sender<()>,
            release: Mutex<mpsc::Receiver<()>>,
        }
        impl Drop for SlowDrop {
            fn drop(&mut self) {
                let _ = self.entered.send(());
                let _ = self.release.lock().recv();
            }
        }
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let slow = SlowDrop {
            entered: entered_tx,
            release: Mutex::new(release_rx),
        };
        let blocking =
            RelationF::computed("slow", &["k"], fdm_core::Domain::IntRange(0, 0), move |k| {
                let _ = &slow;
                Ok(k.clone())
            });
        let store = bank();
        store
            .run(|txn| txn.assign("slow", blocking.clone()))
            .unwrap();
        drop(blocking);
        store.run(|txn| txn.drop_entry("slow")).unwrap();
        // enough commits that the history has handed back the superseded
        // root that bound the relation: only the undo of v2 holds it now
        for balance in 0..9 {
            store
                .run(|txn| txn.update_attr("accounts", &Value::Int(1), "balance", balance))
                .unwrap();
        }
        std::thread::scope(|s| {
            let store = &store;
            s.spawn(move || store.compact_history(1));
            entered
                .recv_timeout(Duration::from_secs(10))
                .expect("the compaction frees the relation");
            let (done_tx, done) = mpsc::channel();
            s.spawn(move || {
                let balance = TupleF::builder("a").attr("balance", 2).build();
                done_tx.send(store.upsert_one("accounts", Value::Int(2), balance))
            });
            let committed = done.recv_timeout(Duration::from_secs(5));
            drop(release);
            let committed = committed.expect("a commit waited for the compaction's frees");
            assert_eq!(committed.unwrap(), 12);
        });
        assert_eq!(store.history().versions(), vec![11, 12]);
    }

    /// Regression pin for the sequencer's locking discipline: `begin()`,
    /// snapshot reads and point reads must never touch the commit
    /// sequencer, so a stalled committer (or anything else holding it)
    /// cannot block readers — and long-running readers, holding only
    /// persistent clones, cannot block commits.
    #[test]
    fn begin_and_snapshot_never_take_the_commit_sequencer() {
        let store = bank();
        let guard = store.sequencer(); // a "stalled committer"
        let (tx, rx) = mpsc::channel();
        let reader_store = Arc::clone(&store);
        let handle = std::thread::spawn(move || {
            let txn = reader_store.begin();
            let (v, db) = reader_store.snapshot_versioned();
            let _ = reader_store.as_of(v);
            let (read_at, read) = reader_store
                .read_point_versioned("accounts", &Value::Int(1))
                .unwrap();
            tx.send((
                txn.base_version(),
                v,
                db.relation("accounts").unwrap().len(),
                read_at,
                read.is_some(),
            ))
            .unwrap();
        });
        let got = rx.recv_timeout(Duration::from_secs(10)).expect(
            "begin()/snapshot()/as_of()/read_point() must not block on the commit sequencer",
        );
        assert_eq!(got, (0, 0, 1, 0, true));
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
