//! A versioned root cell for snapshot-based concurrency.
//!
//! [`VersionedRoot`] holds the *current committed version* of an arbitrary
//! persistent value (in the engine: the database function root). Readers
//! take O(1) snapshots — or borrow the current one for the length of a
//! closure — and writers install new versions with an optimistic
//! compare-and-swap keyed on the version number, which is exactly the
//! primitive a first-committer-wins snapshot-isolation commit needs.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// The splitmix64 finalizer: a fast, high-quality 64-bit avalanche.
///
/// This is the repo's **single** splitmix64 — [`Backoff`] seeds its jitter
/// stream with it and `fdm_core`'s `DistinctSketch` (re-exported there as
/// `fdm_core::splitmix64`) whitens FxHash outputs with it. The two used to
/// carry private copies; they must keep producing bit-identical outputs,
/// which the sketch's register-identity regression test pins.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic exponential backoff with seeded jitter.
///
/// The delay ceiling doubles each attempt (`base`, `2·base`, `4·base`, …
/// capped at `max`); the actual delay is drawn uniformly from
/// `[ceiling/2, ceiling]` by a seeded xorshift generator, so two
/// `Backoff`s built from the same seed produce the **same** delay
/// sequence — contention tests and fault-injection runs stay
/// reproducible — while different seeds desynchronize contending
/// committers (the point of jitter).
///
/// # Examples
///
/// ```
/// use fdm_storage::Backoff;
/// use std::time::Duration;
///
/// let mut a = Backoff::new(Duration::from_micros(10), Duration::from_millis(1), 7);
/// let mut b = Backoff::new(Duration::from_micros(10), Duration::from_millis(1), 7);
/// assert_eq!(a.next_delay(), b.next_delay(), "same seed, same jitter");
/// ```
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    max: Duration,
    state: u64,
    attempt: u32,
}

impl Backoff {
    /// Creates a backoff schedule starting at `base`, capped at `max`,
    /// with jitter drawn from `seed`.
    pub fn new(base: Duration, max: Duration, seed: u64) -> Backoff {
        Backoff {
            base,
            max,
            // splitmix64: nearby seeds yield unrelated streams; |1 keeps
            // the state off xorshift's fixed point at 0
            state: splitmix64(seed) | 1,
            attempt: 0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// The next delay in the schedule (advances the attempt counter).
    pub fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(16);
        self.attempt += 1;
        let ceiling = self
            .base
            .saturating_mul(1u32 << exp)
            .min(self.max)
            .max(Duration::from_nanos(2));
        let nanos = ceiling.as_nanos() as u64;
        let jitter = self.next_u64() % (nanos / 2 + 1);
        Duration::from_nanos(nanos - jitter)
    }

    /// Number of delays handed out so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Sleeps for the next delay in the schedule.
    pub fn sleep_next(&mut self) {
        std::thread::sleep(self.next_delay());
    }
}

/// A monotonically increasing version number assigned at each commit.
pub type Version = u64;

/// A snapshot of the root at some version.
#[derive(Debug, Clone)]
pub struct Snapshot<T> {
    /// Version at which this snapshot was taken.
    pub version: Version,
    /// The (persistent) value; cloning it is cheap by construction.
    pub value: T,
}

/// The error returned when a conditional install loses the race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionConflict {
    /// The version the caller expected to still be current.
    pub expected: Version,
    /// The version actually current at install time.
    pub found: Version,
}

impl std::fmt::Display for VersionConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "version conflict: expected current version {}, found {}",
            self.expected, self.found
        )
    }
}

impl std::error::Error for VersionConflict {}

/// Upper bound on the number of lanes of a [`VersionedRoot`], whatever the
/// host: an install writes every lane, so lanes beyond the threads that
/// read at once only lengthen the commit section.
const MAX_LANES: usize = 16;

/// Lanes per root on this host: `available_parallelism()` rounded up to a
/// power of two (so a slot maps to a lane with a mask), at most
/// [`MAX_LANES`]. Asked once — the answer reads cgroup files on Linux.
fn lane_count() -> usize {
    static LANES: OnceLock<usize> = OnceLock::new();
    *LANES.get_or_init(|| {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .next_power_of_two()
            .min(MAX_LANES)
    })
}

/// Slots are handed out round-robin, one per thread, on the thread's first
/// root access; a slot picks the same lane index in every root.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Relaxed: the counter publishes nothing, it only spreads threads
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
}

/// One copy of the current snapshot behind its own lock, alone on its
/// cache lines (128: adjacent-line prefetch pairs 64-byte lines), so the
/// reader count of one lane is never written by a reader of another.
#[derive(Debug)]
#[repr(align(128))]
struct Lane<T>(RwLock<Snapshot<T>>);

/// A concurrent cell holding the current committed version of a value.
///
/// `T` is expected to be a persistent structure (e.g. [`crate::PMap`]) whose
/// clone is O(1); `load` then costs a lock acquisition plus a pointer copy,
/// and [`Self::read_with`] not even the copy.
///
/// The cell is **lane-sharded**: it keeps one clone of the snapshot per
/// lane, each behind its own cache-line-aligned lock. A reader locks only
/// its thread's lane, so readers on different lanes write no memory in
/// common; [`Self::try_install`] holds **every** lane while it switches
/// them, so the switch is as atomic to readers as with a single lock —
/// no reader sees the new version on one lane while another can still see
/// the old one.
///
/// # Examples
///
/// ```
/// use fdm_storage::{PMap, VersionedRoot};
///
/// let root = VersionedRoot::new(PMap::<i64, i64>::new());
/// let snap = root.load();
/// let updated = snap.value.insert(1, 100).0;
/// root.try_install(snap.version, updated).unwrap();
/// assert_eq!(root.read_with(|s| s.value.get(&1).copied()), Some(100));
/// ```
#[derive(Debug)]
pub struct VersionedRoot<T> {
    lanes: Box<[Lane<T>]>,
}

impl<T: Clone> VersionedRoot<T> {
    /// Creates a root at version 0 holding `value`.
    pub fn new(value: T) -> Self {
        VersionedRoot::with_version(value, 0)
    }

    /// Creates a root at an explicit `version` holding `value` — the
    /// recovery constructor: a store rebuilt from a checkpoint + log
    /// replay must resume version numbering where the crashed process
    /// stopped, not restart at 0.
    pub fn with_version(value: T, version: Version) -> Self {
        let snap = Snapshot { version, value };
        VersionedRoot {
            lanes: (0..lane_count())
                .map(|_| Lane(RwLock::new(snap.clone())))
                .collect(),
        }
    }

    /// The calling thread's lane. `try_with` fails only while the thread's
    /// locals are being destroyed; a read from a destructor takes lane 0.
    fn lane(&self) -> &RwLock<Snapshot<T>> {
        let slot = SLOT.try_with(|s| *s).unwrap_or(0);
        &self.lanes[slot & (self.lanes.len() - 1)].0
    }

    /// Runs `f` on the current snapshot **without cloning it**, holding
    /// the calling thread's lane for the duration: an install waits for
    /// `f`, so `f` must be short and must not touch this root again — a
    /// second read of the same lane deadlocks once an install is waiting
    /// between the two.
    pub fn read_with<R>(&self, f: impl FnOnce(&Snapshot<T>) -> R) -> R {
        f(&self.lane().read())
    }

    /// Takes a snapshot of the current version.
    pub fn load(&self) -> Snapshot<T> {
        self.read_with(Snapshot::clone)
    }

    /// Current version number.
    pub fn version(&self) -> Version {
        self.read_with(|s| s.version)
    }

    /// Installs `value` only if the current version is still `expected`
    /// (optimistic concurrency / first-committer-wins). On success returns
    /// the new version.
    ///
    /// The one writer routine: takes every lane's write lock in index
    /// order (two installers cannot deadlock), checks `expected` once —
    /// with all lanes held they all hold the same snapshot — writes every
    /// lane, and only then releases. The guards live on the stack (a root
    /// has at most 16 lanes), so an install allocates nothing of its own.
    /// The last clone of what the lanes held before is dropped after the
    /// locks are.
    pub fn try_install(&self, expected: Version, value: T) -> Result<Version, VersionConflict> {
        let mut guards: [Option<_>; MAX_LANES] = std::array::from_fn(|_| None);
        for (guard, lane) in guards.iter_mut().zip(self.lanes.iter()) {
            *guard = Some(lane.0.write());
        }
        let held = guards.iter_mut().map_while(Option::as_mut);
        let mut held = held.map(|guard| &mut **guard);
        let first = held.next().expect("a root has a lane");
        let found = first.version;
        if found != expected {
            return Err(VersionConflict { expected, found });
        }
        let version = expected + 1;
        let next = Snapshot { version, value };
        for lane in held {
            // drops a clone of what lane 0 still holds: for a persistent
            // value a refcount step, nothing is freed under the locks
            *lane = next.clone();
        }
        let replaced = std::mem::replace(first, next);
        drop(guards);
        drop(replaced);
        Ok(version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PMap;
    use std::sync::Arc;

    #[test]
    fn splitmix64_matches_the_reference_finalizer() {
        // the inlined copies this function replaced, kept verbatim as the
        // reference: Backoff seeding and DistinctSketch whitening must
        // keep observing these exact bits
        fn reference(x: u64) -> u64 {
            let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        for x in [0u64, 1, 2, 0xFD17, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            assert_eq!(splitmix64(x), reference(x), "diverged at {x:#x}");
        }
        // the canonical splitmix64 test vector (Vigna): state 0 steps to
        // this first output
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn with_version_resumes_numbering() {
        let root = VersionedRoot::with_version(7i64, 41);
        assert_eq!(root.version(), 41);
        let snap = root.load();
        assert_eq!((snap.version, snap.value), (41, 7));
        assert_eq!(root.try_install(41, 8).unwrap(), 42);
    }

    #[test]
    fn try_install_detects_conflict() {
        let root = VersionedRoot::new(0i64);
        let snap = root.load();
        root.try_install(0, 1).unwrap(); // someone else commits
        let err = root.try_install(snap.version, 2).unwrap_err();
        assert_eq!(err.expected, 0);
        assert_eq!(err.found, 1);
        assert_eq!(root.load().value, 1, "losing install must not apply");
    }

    #[test]
    fn snapshots_survive_installs() {
        let root = VersionedRoot::new(PMap::from_iter([(1, "one")]));
        let snap = root.load();
        root.try_install(0, snap.value.insert(2, "two").0).unwrap();
        assert_eq!(snap.value.len(), 1, "old snapshot unchanged");
        assert_eq!(root.load().value.len(), 2);
    }

    #[test]
    fn backoff_is_deterministic_under_a_fixed_seed() {
        let mut a = Backoff::new(Duration::from_micros(20), Duration::from_millis(2), 0xFD17);
        let mut b = Backoff::new(Duration::from_micros(20), Duration::from_millis(2), 0xFD17);
        let seq_a: Vec<Duration> = (0..12).map(|_| a.next_delay()).collect();
        let seq_b: Vec<Duration> = (0..12).map(|_| b.next_delay()).collect();
        assert_eq!(seq_a, seq_b, "same seed must replay the same schedule");
        let mut c = Backoff::new(Duration::from_micros(20), Duration::from_millis(2), 0xFD18);
        let seq_c: Vec<Duration> = (0..12).map(|_| c.next_delay()).collect();
        assert_ne!(seq_a, seq_c, "different seeds must desynchronize");
    }

    #[test]
    fn backoff_delays_are_bounded_and_grow_to_the_cap() {
        let base = Duration::from_micros(10);
        let max = Duration::from_micros(500);
        let mut b = Backoff::new(base, max, 1);
        for i in 0..32 {
            let d = b.next_delay();
            // ceiling for attempt i is min(base << i, max); jitter keeps
            // the draw within [ceiling/2, ceiling]
            let ceiling = base.saturating_mul(1 << i.min(16)).min(max);
            assert!(d <= ceiling, "attempt {i}: {d:?} above ceiling {ceiling:?}");
            assert!(
                d >= ceiling / 2,
                "attempt {i}: {d:?} below half-ceiling {ceiling:?}"
            );
        }
        assert_eq!(b.attempts(), 32);
    }

    #[test]
    fn read_with_borrows_version_and_value_together() {
        let root = VersionedRoot::with_version(PMap::from_iter([(1, "one")]), 3);
        let before = root.load().value;
        let got = root.read_with(|s| (s.version, s.value.get(&1).copied()));
        assert_eq!(got, (3, Some("one")));
        root.try_install(3, before.insert(1, "uno").0).unwrap();
        let got = root.read_with(|s| (s.version, s.value.get(&1).copied()));
        assert_eq!(got, (4, Some("uno")));
    }

    #[test]
    fn lane_count_is_a_capped_power_of_two() {
        let root = VersionedRoot::new(0i64);
        let lanes = root.lanes.len();
        assert!(lanes.is_power_of_two() && lanes <= MAX_LANES, "{lanes}");
        assert_eq!(std::mem::align_of::<Lane<i64>>(), 128);
        assert_eq!(std::mem::size_of::<Lane<i64>>() % 128, 0);
    }

    /// A root read from a thread-local destructor — when this thread's
    /// lane slot may already be gone — is served (from lane 0 then), not
    /// a panic inside a destructor.
    #[test]
    fn a_read_from_a_thread_local_destructor_is_served() {
        use std::sync::mpsc;
        struct ReadsOnDrop(Arc<VersionedRoot<i64>>, mpsc::Sender<(Version, i64)>);
        impl Drop for ReadsOnDrop {
            fn drop(&mut self) {
                let snap = self.0.load();
                let _ = self.1.send((self.0.version(), snap.value));
            }
        }
        thread_local! {
            static HELD: std::cell::RefCell<Option<ReadsOnDrop>> =
                const { std::cell::RefCell::new(None) };
        }
        let root = Arc::new(VersionedRoot::with_version(7i64, 41));
        let (tx, rx) = mpsc::channel();
        let handle = {
            let root = Arc::clone(&root);
            std::thread::spawn(move || {
                // registered before the lane slot is first used, so on the
                // platforms that run destructors in reverse order of
                // registration the slot goes first
                HELD.with(|h| *h.borrow_mut() = Some(ReadsOnDrop(Arc::clone(&root), tx)));
                assert_eq!(root.version(), 41);
            })
        };
        handle.join().expect("the destructor must not panic");
        assert_eq!(rx.recv().expect("the destructor read the root"), (41, 7));
    }

    /// What one thread of the lane model test does next.
    #[derive(Debug, Clone)]
    enum LaneOp {
        Load,
        ReadWith,
        Version,
        /// `try_install` expecting the newest version this thread has
        /// seen, minus `stale`.
        Install {
            stale: u64,
        },
    }

    fn lane_op() -> impl proptest::strategy::Strategy<Value = LaneOp> {
        use proptest::prelude::*;
        prop_oneof![
            Just(LaneOp::Load),
            Just(LaneOp::ReadWith),
            Just(LaneOp::Version),
            (0u64..3).prop_map(|stale| LaneOp::Install { stale }),
            Just(LaneOp::Install { stale: 0 }),
        ]
    }

    /// What a thread saw of the root, to be checked against the history
    /// the winners' installs add up to.
    #[derive(Default)]
    struct Seen {
        /// `(version, value)` of every successful install.
        wins: Vec<(Version, (Version, usize))>,
        /// `(version, value)` of every `load`/`read_with`.
        reads: Vec<(Version, (Version, usize))>,
    }

    /// The values installed are `(version the install expects to get,
    /// thread)`, so a torn `(version, value)` pair shows in the value.
    fn run_lane_script(
        root: &VersionedRoot<(Version, usize)>,
        thread: usize,
        script: &[LaneOp],
    ) -> Seen {
        let mut seen = Seen::default();
        // the newest version this thread has observed: nothing it does
        // later may report an older one
        let mut newest = 0;
        for op in script {
            match op {
                LaneOp::Load => {
                    let snap = root.load();
                    assert!(snap.version >= newest, "load went back");
                    newest = snap.version;
                    seen.reads.push((snap.version, snap.value));
                }
                LaneOp::ReadWith => {
                    let (version, value) = root.read_with(|s| (s.version, s.value));
                    assert!(version >= newest, "read_with went back");
                    newest = version;
                    seen.reads.push((version, value));
                }
                LaneOp::Version => {
                    let version = root.version();
                    assert!(version >= newest, "version went back");
                    newest = version;
                }
                LaneOp::Install { stale } => {
                    let expected = newest.saturating_sub(*stale);
                    let value = (expected + 1, thread);
                    match root.try_install(expected, value) {
                        Ok(version) => {
                            assert_eq!(version, expected + 1);
                            assert_eq!(expected, newest, "a stale install won");
                            newest = version;
                            seen.wins.push((version, value));
                        }
                        Err(conflict) => {
                            assert_eq!(conflict.expected, expected);
                            assert_ne!(conflict.found, expected);
                            assert!(conflict.found >= newest, "found went back");
                            newest = conflict.found;
                        }
                    }
                }
            }
        }
        // a loser's `found` was the current version: not ahead of what
        // the same thread reads next
        assert!(root.version() >= newest);
        seen
    }

    proptest::proptest! {
        /// k threads mixing `load`/`read_with`/`version` with
        /// `try_install` (fresh and stale `expected`) behave as one
        /// `RwLock<Snapshot>` would: the wins, in version order, are one
        /// consecutive version each — that order is the model's history —
        /// every read is a `(version, value)` of that history, no thread
        /// sees it run backwards, and after the join every lane holds its
        /// last entry.
        #[test]
        fn lanes_behave_as_one_locked_snapshot(
            scripts in proptest::collection::vec(
                proptest::collection::vec(lane_op(), 0..48), 2..5),
        ) {
            let root = VersionedRoot::new((0, usize::MAX));
            let start = std::sync::Barrier::new(scripts.len());
            let seen: Vec<Seen> = std::thread::scope(|s| {
                let handles: Vec<_> = scripts
                    .iter()
                    .enumerate()
                    .map(|(thread, script)| {
                        let (root, start) = (&root, &start);
                        s.spawn(move || {
                            start.wait();
                            run_lane_script(root, thread, script)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a lane thread panicked"))
                    .collect()
            });
            let mut wins: Vec<_> = seen.iter().flat_map(|s| s.wins.iter().copied()).collect();
            wins.sort_unstable();
            // the one-lock model's history: version `i` held `history[i]`
            let mut history = vec![(0, usize::MAX)];
            for (version, value) in wins {
                proptest::prop_assert_eq!(version, history.len() as Version, "wins are consecutive");
                history.push(value);
            }
            for (version, value) in seen.iter().flat_map(|s| s.reads.iter()) {
                proptest::prop_assert_eq!(history.get(*version as usize), Some(value));
            }
            let last = (history.len() as Version - 1, history[history.len() - 1]);
            for lane in root.lanes.iter() {
                let held = lane.0.read();
                proptest::prop_assert_eq!((held.version, held.value), last);
            }
        }
    }
}
