//! # fdm-txn — transactions over the Functional Data Model
//!
//! The paper's Fig. 10/11 semantics: changes apply immediately to *the
//! snapshot of the transaction*, and `begin()`/`commit()` bracket
//! multi-statement transactions. Because the whole database function is a
//! persistent structure (see `fdm-storage`), a snapshot is O(1) and a
//! transaction's working copy never disturbs readers.
//!
//! Isolation level: **snapshot isolation** with first-committer-wins
//! write-write conflict detection. Transactions whose write sets are
//! disjoint from every commit since their snapshot merge by replaying
//! their recorded operations onto the newest root.
//!
//! The commit path is built for concurrency (see `docs/TRANSACTIONS.md`
//! at the repo root): every write takes its turn in one short commit
//! sequencer, so versions reach the history and the WAL in order and no
//! install is lost to a race; genuine write-write conflicts surface as
//! typed errors carrying the conflicting keys, [`Store::run`] re-derives
//! read-modify-write transactions from fresh snapshots under a
//! [`CommitPolicy`] with deterministic seeded backoff, and every commit
//! pushes one record into a bounded [`History`] — the one ring that
//! conflict validation, [`Store::as_of`] time-travel reads and view
//! maintenance all read. Building with the
//! `fault-injection` feature (or in tests) adds `FaultPlan` hooks that
//! force conflicts, delays, and poisoned write sets at chosen versions.
//!
//! Stores built with [`Store::create`] / [`Store::open`] are **durable**
//! (see `docs/DURABILITY.md` at the repo root): every commit's writeset
//! goes through a segmented write-ahead log before the commit is
//! acknowledged, checkpoints bound replay, and `open` recovers the
//! committed prefix after a crash — including a torn tail, which is
//! truncated, never silently extended past acknowledged commits. The
//! `fault-injection` feature adds `CrashPlan` hooks (torn writes, bit
//! flips, dropped fsyncs) on the durability layer.
//!
//! ```
//! use fdm_core::{DatabaseF, RelationF, TupleF, Value};
//! use fdm_txn::Store;
//!
//! let accounts = RelationF::new("accounts", &["id"])
//!     .insert(Value::Int(1), TupleF::builder("a").attr("balance", 10).build()).unwrap();
//! let store = Store::new(DatabaseF::new("bank").with_relation(accounts));
//!
//! let mut t = store.begin();
//! t.update_attr("accounts", &Value::Int(1), "balance", 20).unwrap();
//! t.commit().unwrap();
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod catalog;
#[cfg(any(test, feature = "fault-injection"))]
pub mod fault;
pub mod history;
pub mod store;
pub mod txn;
mod writeset;

pub use batch::BatchPolicy;
pub use catalog::{RefreshMode, ViewCatalog};
#[cfg(any(test, feature = "fault-injection"))]
pub use fault::FaultPlan;
#[cfg(any(test, feature = "fault-injection"))]
pub use fdm_durability::CrashPlan;
pub use fdm_durability::{DurabilityConfig, DurabilityError, IntegrityReport, SyncPolicy};
pub use fdm_storage::Version;
pub use history::History;
pub use store::{CommitOutcome, CommitPolicy, Store, StoreConfig};
pub use txn::Transaction;
