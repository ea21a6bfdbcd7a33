//! # fdm-durability
//!
//! Durability substrate for the FDM transaction layer: a segmented
//! write-ahead log, canonical checkpoints, and crash recovery.
//!
//! The paper's model makes durability unusually simple: the whole
//! database is **one persistent value**, so
//!
//! * a *checkpoint* is just the canonical serialization of that one value
//!   at some version (module [`checkpoint`]);
//! * a *WAL record* is just the writeset of one commit — the same ops the
//!   in-memory commit replays onto the root (module [`wal`]);
//! * *recovery* is: load the newest valid checkpoint, replay the WAL tail
//!   through the same commit machinery, truncate at the first torn record
//!   (module [`recovery`]).
//!
//! There is no page model, no undo log, no fuzzy-checkpoint protocol:
//! persistent values never change in place, so every checkpoint is
//! trivially consistent and the WAL is redo-only.
//!
//! The serialization (module [`codec`]) is **canonical**: attributes in
//! sorted name order, floats by bit pattern — the same discipline as the
//! tuple fingerprint cache — so byte equality of encodings is value
//! equality and a re-encoded recovery is byte-stable.
//!
//! Fault injection (module `crash`, compiled under `cfg(test)` or the
//! `fault-injection` feature) cuts writes at an arbitrary byte, flips
//! bits, duplicates the tail record, and drops fsyncs, letting the test
//! suite prove the recovery contract: **for every crash point, recovery
//! yields exactly a prefix of the committed history, and never loses an
//! acknowledged (fsynced) commit.**
//!
//! This crate deliberately knows nothing about transactions: it stores
//! and returns `fdm-core`'s [`fdm_core::Op`]s, the same ops a transaction
//! stages and a commit replays, and `fdm-txn` drives their replay through
//! its commit machinery.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
#[cfg(any(test, feature = "fault-injection"))]
pub mod crash;
pub mod error;
pub mod recovery;
pub mod wal;

#[cfg(any(test, feature = "fault-injection"))]
pub use checkpoint::write_checkpoint_faulty;
pub use checkpoint::{list_checkpoints, prune_checkpoints, write_checkpoint};
pub use codec::{decode_database, decode_ops, encode_database, encode_ops};
#[cfg(any(test, feature = "fault-injection"))]
pub use crash::CrashPlan;
pub use error::DurabilityError;
pub use recovery::{recover, verify_integrity, IntegrityReport, Recovered};
pub use wal::{check_record_payload, DurabilityConfig, SyncPolicy, Wal, MAX_RECORD_BYTES};

/// Commit version number (re-exported from `fdm-storage` for convenience).
pub type Version = fdm_storage::Version;
