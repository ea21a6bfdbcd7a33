//! # fdm-storage
//!
//! Storage substrate for the FDM/FQL engine: **persistent** (immutable,
//! structurally shared) ordered containers plus a versioned root cell.
//!
//! The paper's Figure 10/11 semantics — "changes are applied immediately to
//! the snapshot of the transaction" — require that taking a snapshot of an
//! arbitrarily large database is cheap and that updates do not disturb
//! readers of older snapshots. Persistent balanced trees give exactly that:
//! a snapshot is an `Arc` clone of a root pointer (O(1)), and every update
//! produces a new root sharing all untouched subtrees (O(log n) allocation).
//!
//! Provided containers:
//!
//! * [`PMap`] — persistent ordered map (a B+-tree of 8-wide `Arc`-shared
//!   nodes: order statistics, range scans over contiguous leaves).
//! * [`PSet`] — persistent ordered set, a thin wrapper over [`PMap`].
//! * [`VersionedRoot`] — a concurrent cell holding the current committed
//!   root, lane-sharded so readers on different threads share no lock
//!   word: snapshot loads, borrowed reads, and atomic compare-and-swap
//!   installs for first-committer-wins commit protocols.
//!
//! ## Bulk construction fast path
//!
//! Point inserts are for point workloads. Building an n-entry container by
//! repeated `insert` costs O(n log n) time and allocates a fresh
//! root-to-leaf path per entry; query operators that emit whole results
//! should instead hand a sorted run to `PMap::from_sorted_vec` /
//! `PSet::from_sorted_vec` (or the `from_sorted_iter` variants), which
//! assemble the tree bottom-up in **O(n)** from full nodes, about one node
//! allocation per seven entries. The ordering contract is checked by
//! `debug_assert` only, so release builds pay nothing. `fdm-core`'s
//! `RelationBuilder` is the relation-level wrapper every FQL operator
//! builds its output through.

#![warn(missing_docs)]

pub mod pmap;
pub mod pset;
pub mod version;

pub use pmap::PMap;
pub use pset::PSet;
pub use version::{splitmix64, Backoff, Snapshot, Version, VersionConflict, VersionedRoot};
