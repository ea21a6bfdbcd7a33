//! I/O-layer fault injection: simulated crashes, torn writes, bit flips,
//! duplicated records, and lost fsyncs.
//!
//! Compiled only under `cfg(test)` or the `fault-injection` feature —
//! production builds carry none of this. The design mirrors the
//! transaction layer's `FaultPlan`: a shared [`CrashPlan`] handle is
//! installed on the writer, faults are armed from the test, and fired
//! counters prove each fault actually triggered (a fault test that
//! silently injects nothing is worse than no test).
//!
//! [`CrashPlan::stall`] models a slow medium instead of a dead one: while
//! its guard lives, every write and fsync through the plan waits — which
//! lets a test hold a committer *inside* its durable I/O and observe what
//! the rest of the store can still do.
//!
//! The plan models the durable medium with two global byte counters:
//! everything the writer pushed ([`CrashPlan::written_bytes`]) and
//! everything a *successful* fsync has made durable
//! ([`CrashPlan::durable_bytes`]). With [`CrashPlan::drop_fsync`] armed
//! the writer believes its fsyncs succeed while the durable counter
//! stays behind — a test simulates power loss by truncating the WAL to
//! `durable_bytes()` and proving recovery never loses anything *below*
//! that boundary.

use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A plan of I/O faults to inject into the WAL/checkpoint write path.
///
/// All faults are armed from the outside through `&self`; the writer
/// consumes them through the `pub(crate)` hooks. After a cut fires, the
/// plan is *crashed*: every further write or fsync through it fails with
/// [`crate::DurabilityError::Crashed`], modelling a dead machine.
#[derive(Default)]
pub struct CrashPlan {
    /// Cut the stream after this many total bytes, then crash.
    cut_at: Mutex<Option<u64>>,
    /// Flip bit `1 << (b % 8)` of the byte at this global offset.
    flip: Mutex<Option<(u64, u8)>>,
    /// Append the next WAL record twice.
    dup_tail: AtomicBool,
    /// Report fsync success without syncing.
    drop_fsync: AtomicBool,
    /// Set once a cut fires; all further I/O through the plan fails.
    crashed: AtomicBool,
    /// Held by [`CrashPlan::stall`]'s guard; every write and fsync passes
    /// through it.
    gate: Mutex<()>,
    /// Total bytes pushed through faulty writes.
    written: AtomicU64,
    /// Bytes made durable by the last *successful* fsync.
    durable: AtomicU64,
    /// Number of cut faults that fired.
    pub cuts_fired: AtomicUsize,
    /// Number of bit flips that fired.
    pub flips_fired: AtomicUsize,
    /// Number of duplicated records that fired.
    pub dups_fired: AtomicUsize,
    /// Number of fsyncs swallowed.
    pub fsyncs_dropped: AtomicUsize,
}

impl CrashPlan {
    /// Creates an empty plan (no faults armed).
    pub fn new() -> Arc<CrashPlan> {
        Arc::new(CrashPlan::default())
    }

    /// Arms a torn write: the byte stream is cut after `offset` total
    /// bytes (counted across all writes through this plan) and the writer
    /// crashes — everything after the cut is lost, like a power failure
    /// mid-`write(2)`.
    pub fn cut_write_at(&self, offset: u64) {
        *self.cut_at.lock() = Some(offset);
    }

    /// Arms a single bit flip at global byte `offset`, bit `bit % 8` —
    /// media corruption rather than a crash; the writer keeps going.
    pub fn flip_bit_at(&self, offset: u64, bit: u8) {
        *self.flip.lock() = Some((offset, bit % 8));
    }

    /// Arms a one-shot duplication of the next WAL record — the signature
    /// of a retried append racing a crash. Recovery must deduplicate by
    /// version.
    pub fn duplicate_tail_record(&self) {
        self.dup_tail.store(true, Ordering::SeqCst);
    }

    /// Arms sticky fsync loss: every subsequent fsync reports success
    /// without syncing, so the writer's durable watermark runs ahead of
    /// the medium. [`Self::durable_bytes`] keeps the true boundary.
    pub fn drop_fsync(&self) {
        self.drop_fsync.store(true, Ordering::SeqCst);
    }

    /// Stalls the medium: until the returned guard is dropped, every write
    /// and fsync through this plan blocks before touching anything.
    pub fn stall(&self) -> MutexGuard<'_, ()> {
        self.gate.lock()
    }

    /// `true` once an armed cut has fired (the simulated machine is dead).
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Total bytes pushed through faulty writes so far.
    pub fn written_bytes(&self) -> u64 {
        self.written.load(Ordering::SeqCst)
    }

    /// Bytes actually made durable (advanced only by *real* fsyncs).
    pub fn durable_bytes(&self) -> u64 {
        self.durable.load(Ordering::SeqCst)
    }

    /// Filters a pending write of `buf` bytes. Returns the number of
    /// bytes to actually write (possibly fewer than `buf.len()` when a
    /// cut fires) and mutates `buf` in place for armed bit flips. Returns
    /// `None` if the plan has already crashed — the caller must fail with
    /// `Crashed` without writing.
    pub(crate) fn filter_write(&self, buf: &mut [u8]) -> Option<usize> {
        drop(self.gate.lock());
        if self.crashed() {
            return None;
        }
        let start = self.written.load(Ordering::SeqCst);
        let len = buf.len() as u64;
        {
            // hold the guard across test-and-clear: `if let` on a fresh
            // `.lock()` would re-lock inside its own borrow and deadlock
            let mut flip = self.flip.lock();
            if let Some((off, bit)) = *flip {
                if off >= start && off < start + len {
                    buf[(off - start) as usize] ^= 1 << bit;
                    *flip = None;
                    self.flips_fired.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        let mut n = buf.len();
        if let Some(cut) = *self.cut_at.lock() {
            if start + len > cut {
                n = cut.saturating_sub(start) as usize;
                self.crashed.store(true, Ordering::SeqCst);
                self.cuts_fired.fetch_add(1, Ordering::SeqCst);
            }
        }
        self.written.fetch_add(n as u64, Ordering::SeqCst);
        Some(n)
    }

    /// Consumes the one-shot duplicate-record fault.
    pub(crate) fn take_duplicate(&self) -> bool {
        let fired = self.dup_tail.swap(false, Ordering::SeqCst);
        if fired {
            self.dups_fired.fetch_add(1, Ordering::SeqCst);
        }
        fired
    }

    /// Consulted before each fsync. Returns `false` if the fsync must be
    /// skipped (while still reported as success to the writer); advances
    /// the durable boundary when the fsync is real. Returns `None` when
    /// crashed.
    pub(crate) fn filter_fsync(&self) -> Option<bool> {
        drop(self.gate.lock());
        if self.crashed() {
            return None;
        }
        if self.drop_fsync.load(Ordering::SeqCst) {
            self.fsyncs_dropped.fetch_add(1, Ordering::SeqCst);
            return Some(false);
        }
        self.durable
            .store(self.written.load(Ordering::SeqCst), Ordering::SeqCst);
        Some(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_truncates_and_crashes() {
        let plan = CrashPlan::new();
        plan.cut_write_at(10);
        let mut a = vec![0u8; 8];
        assert_eq!(plan.filter_write(&mut a), Some(8), "below the cut: full");
        let mut b = vec![0u8; 8];
        assert_eq!(plan.filter_write(&mut b), Some(2), "cut mid-write");
        assert!(plan.crashed());
        assert_eq!(plan.cuts_fired.load(Ordering::SeqCst), 1);
        let mut c = vec![0u8; 4];
        assert_eq!(plan.filter_write(&mut c), None, "dead after the cut");
        assert_eq!(plan.filter_fsync(), None);
        assert_eq!(plan.written_bytes(), 10);
    }

    #[test]
    fn flip_fires_once_at_the_right_byte() {
        let plan = CrashPlan::new();
        plan.flip_bit_at(5, 3);
        let mut a = vec![0u8; 4];
        plan.filter_write(&mut a);
        assert_eq!(a, vec![0, 0, 0, 0], "offset 5 not reached yet");
        let mut b = vec![0u8; 4];
        plan.filter_write(&mut b);
        assert_eq!(b, vec![0, 0b1000, 0, 0], "byte 5 = index 1 of this write");
        assert_eq!(plan.flips_fired.load(Ordering::SeqCst), 1);
        let mut c = vec![0u8; 4];
        plan.filter_write(&mut c);
        assert_eq!(c, vec![0, 0, 0, 0], "one-shot");
    }

    #[test]
    fn dropped_fsyncs_freeze_the_durable_boundary() {
        let plan = CrashPlan::new();
        let mut a = vec![0u8; 6];
        plan.filter_write(&mut a);
        assert_eq!(plan.filter_fsync(), Some(true));
        assert_eq!(plan.durable_bytes(), 6);
        plan.drop_fsync();
        let mut b = vec![0u8; 6];
        plan.filter_write(&mut b);
        assert_eq!(plan.filter_fsync(), Some(false), "swallowed");
        assert_eq!(plan.durable_bytes(), 6, "boundary frozen");
        assert_eq!(plan.written_bytes(), 12);
        assert_eq!(plan.fsyncs_dropped.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn duplicate_is_one_shot() {
        let plan = CrashPlan::new();
        assert!(!plan.take_duplicate());
        plan.duplicate_tail_record();
        assert!(plan.take_duplicate());
        assert!(!plan.take_duplicate());
        assert_eq!(plan.dups_fired.load(Ordering::SeqCst), 1);
    }
}
