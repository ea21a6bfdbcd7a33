//! A versioned root cell for snapshot-based concurrency.
//!
//! [`VersionedRoot`] holds the *current committed version* of an arbitrary
//! persistent value (in the engine: the database function root). Readers
//! take O(1) snapshots; writers install new versions with an optimistic
//! compare-and-swap keyed on the version number, which is exactly the
//! primitive a first-committer-wins snapshot-isolation commit needs.

use parking_lot::RwLock;
use std::sync::Arc;
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

/// A concurrent cell holding the current committed version of a value.
///
/// `T` is expected to be a persistent structure (e.g. [`crate::PMap`]) whose
/// clone is O(1); `load` then costs a lock acquisition plus a pointer copy.
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
/// assert_eq!(root.load().value.get(&1), Some(&100));
/// ```
#[derive(Debug)]
pub struct VersionedRoot<T> {
    inner: RwLock<Snapshot<T>>,
}

impl<T: Clone> VersionedRoot<T> {
    /// Creates a root at version 0 holding `value`.
    pub fn new(value: T) -> Self {
        VersionedRoot {
            inner: RwLock::new(Snapshot { version: 0, value }),
        }
    }

    /// Creates a root at an explicit `version` holding `value` — the
    /// recovery constructor: a store rebuilt from a checkpoint + log
    /// replay must resume version numbering where the crashed process
    /// stopped, not restart at 0.
    pub fn with_version(value: T, version: Version) -> Self {
        VersionedRoot {
            inner: RwLock::new(Snapshot { version, value }),
        }
    }

    /// Takes a snapshot of the current version.
    pub fn load(&self) -> Snapshot<T> {
        self.inner.read().clone()
    }

    /// Current version number.
    pub fn version(&self) -> Version {
        self.inner.read().version
    }

    /// Unconditionally installs `value` as the next version and returns the
    /// new version number.
    pub fn install(&self, value: T) -> Version {
        let mut guard = self.inner.write();
        guard.version += 1;
        guard.value = value;
        guard.version
    }

    /// Installs `value` only if the current version is still `expected`
    /// (optimistic concurrency / first-committer-wins). On success returns
    /// the new version.
    pub fn try_install(&self, expected: Version, value: T) -> Result<Version, VersionConflict> {
        let mut guard = self.inner.write();
        if guard.version != expected {
            return Err(VersionConflict {
                expected,
                found: guard.version,
            });
        }
        guard.version += 1;
        guard.value = value;
        Ok(guard.version)
    }

    /// Atomically applies `f` to the current value and installs the result;
    /// returns the new version. Unlike [`Self::try_install`] this cannot
    /// fail, because it holds the write lock across the transformation.
    pub fn update<F: FnOnce(&T) -> T>(&self, f: F) -> Version {
        let mut guard = self.inner.write();
        let next = f(&guard.value);
        guard.version += 1;
        guard.value = next;
        guard.version
    }
}

/// Shared handle alias: the common way to pass a root between threads.
pub type SharedRoot<T> = Arc<VersionedRoot<T>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PMap;

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
    fn load_install_roundtrip() {
        let root = VersionedRoot::new(0i64);
        assert_eq!(root.version(), 0);
        let v1 = root.install(10);
        assert_eq!(v1, 1);
        assert_eq!(root.load().value, 10);
    }

    #[test]
    fn try_install_detects_conflict() {
        let root = VersionedRoot::new(0i64);
        let snap = root.load();
        root.install(1); // someone else commits
        let err = root.try_install(snap.version, 2).unwrap_err();
        assert_eq!(err.expected, 0);
        assert_eq!(err.found, 1);
        assert_eq!(root.load().value, 1, "losing install must not apply");
    }

    #[test]
    fn snapshots_survive_installs() {
        let root = VersionedRoot::new(PMap::from_iter([(1, "one")]));
        let snap = root.load();
        root.update(|m| m.insert(2, "two").0);
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
    fn concurrent_updates_all_apply() {
        use std::sync::Arc;
        let root = Arc::new(VersionedRoot::new(PMap::<i64, i64>::new()));
        let mut handles = Vec::new();
        for t in 0..8 {
            let root = Arc::clone(&root);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    root.update(|m| m.insert(t * 1000 + i, i).0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(root.load().value.len(), 8 * 50);
        assert_eq!(root.version(), 8 * 50);
    }
}
