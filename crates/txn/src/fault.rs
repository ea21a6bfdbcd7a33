//! Fault injection for the commit path.
//!
//! Degradation paths — transient losses, conflict storms, commits that
//! find the root moved and must replay — are exactly the code that never
//! runs in clean unit tests. A [`FaultPlan`] installed on a [`crate::Store`] forces them
//! at chosen version numbers, so retry/backoff discipline and isolation
//! invariants are testable as first-class behavior instead of hoping the
//! scheduler produces the interleaving.
//!
//! The whole module is compiled only under `cfg(any(test, feature =
//! "fault-injection"))`: production builds carry zero fault-plan code, and
//! the hooks in [`crate::Transaction::commit_with`] disappear with it.
//!
//! Three fault kinds, all keyed on the *current committed version* a
//! commit attempt observes:
//!
//! * **Forced conflict** (`force_conflict_at`) — the attempt is treated as
//!   a transient loss. Consumed once per registered version, so a
//!   retrying commit succeeds on a later attempt; a commit without
//!   retries surfaces it. The commit sequencer leaves no real transient
//!   loss, so this is what keeps the retry budget exercised.
//! * **Delay** (`delay_before_cas_at`; the name predates the sequencer)
//!   — the attempt sleeps before it asks for the commit sequencer, so
//!   real contenders install in between and the attempt takes the replay
//!   path. Sticky (fires every time the version matches).
//! * **Poisoned write set** (`poison_writeset_at`) — every attempt at
//!   that version is a transient loss, and keeps being one (sticky).
//!   With no concurrent committers the version never advances, so a
//!   bounded policy must exhaust its retries and return
//!   `TransactionRetriesExhausted` — the degradation path under a
//!   conflict storm.

use fdm_storage::Version;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A set of faults to inject into a store's commit path.
///
/// Construct with [`FaultPlan::new`], register faults with the `*_at`
/// methods, install with `Store::install_fault_plan`, and read the
/// injection counters afterwards to assert the faults actually fired.
///
/// # Examples
///
/// ```
/// use fdm_txn::FaultPlan;
/// use std::time::Duration;
///
/// let plan = FaultPlan::new();
/// plan.force_conflict_at(0);
/// plan.delay_before_cas_at(2, Duration::from_micros(50));
/// assert_eq!(plan.injected_conflicts(), 0);
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    conflicts: Mutex<BTreeSet<Version>>,
    delays: Mutex<BTreeMap<Version, Duration>>,
    poisons: Mutex<BTreeSet<Version>>,
    injected_conflicts: AtomicUsize,
    injected_delays: AtomicUsize,
    injected_poisons: AtomicUsize,
}

impl FaultPlan {
    /// Creates an empty plan (shared handle — the store keeps a clone).
    pub fn new() -> Arc<FaultPlan> {
        Arc::new(FaultPlan::default())
    }

    /// Force one transient conflict on the first commit attempt that
    /// observes current version `v` (consumed once).
    pub fn force_conflict_at(&self, v: Version) {
        self.conflicts.lock().insert(v);
    }

    /// Sleep `delay` before asking for the commit sequencer on every
    /// commit attempt that observes current version `v` (sticky).
    pub fn delay_before_cas_at(&self, v: Version, delay: Duration) {
        self.delays.lock().insert(v, delay);
    }

    /// Treat every write set validated at current version `v` as
    /// conflicting (sticky): bounded retries must exhaust.
    pub fn poison_writeset_at(&self, v: Version) {
        self.poisons.lock().insert(v);
    }

    /// Number of forced conflicts that actually fired.
    pub fn injected_conflicts(&self) -> usize {
        self.injected_conflicts.load(Ordering::Relaxed)
    }

    /// Number of delays that actually fired.
    pub fn injected_delays(&self) -> usize {
        self.injected_delays.load(Ordering::Relaxed)
    }

    /// Number of poisoned-write-set validations that actually fired.
    pub fn injected_poisons(&self) -> usize {
        self.injected_poisons.load(Ordering::Relaxed)
    }

    pub(crate) fn take_conflict(&self, v: Version) -> bool {
        let fired = self.conflicts.lock().remove(&v);
        if fired {
            self.injected_conflicts.fetch_add(1, Ordering::Relaxed);
        }
        fired
    }

    pub(crate) fn delay_for(&self, v: Version) -> Option<Duration> {
        let d = self.delays.lock().get(&v).copied();
        if d.is_some() {
            self.injected_delays.fetch_add(1, Ordering::Relaxed);
        }
        d
    }

    pub(crate) fn poisoned(&self, v: Version) -> bool {
        let hit = self.poisons.lock().contains(&v);
        if hit {
            self.injected_poisons.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflicts_are_consumed_once_per_version() {
        let plan = FaultPlan::new();
        plan.force_conflict_at(3);
        plan.force_conflict_at(5);
        assert!(!plan.take_conflict(4));
        assert!(plan.take_conflict(3));
        assert!(!plan.take_conflict(3), "consumed");
        assert!(plan.take_conflict(5));
        assert_eq!(plan.injected_conflicts(), 2);
    }

    #[test]
    fn delays_and_poisons_are_sticky() {
        let plan = FaultPlan::new();
        plan.delay_before_cas_at(1, Duration::from_micros(5));
        plan.poison_writeset_at(2);
        assert_eq!(plan.delay_for(1), Some(Duration::from_micros(5)));
        assert_eq!(plan.delay_for(1), Some(Duration::from_micros(5)));
        assert_eq!(plan.delay_for(0), None);
        assert!(plan.poisoned(2));
        assert!(plan.poisoned(2));
        assert!(!plan.poisoned(1));
        assert_eq!(plan.injected_delays(), 2);
        assert_eq!(plan.injected_poisons(), 2);
    }
}
