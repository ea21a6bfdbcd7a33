//! # fdm-core — the Functional Data Model
//!
//! An implementation of the data model proposed in *"A Functional Data
//! Model and Query Language is All You Need"* (Dittrich, EDBT 2026 vision
//! paper): **everything is a function** —
//!
//! | Abstraction | Relational model | FDM (this crate) |
//! |---|---|---|
//! | tuple | sequence of attribute/value pairs | [`TupleF`] |
//! | relation | set of tuples | [`RelationF`] |
//! | database | set of relations | [`DatabaseF`] |
//! | set of databases | — | [`DatabaseF`] nested in [`DatabaseF`] |
//! | relationship | foreign keys + junction tables | [`RelationshipF`] over [`SharedDomain`]s |
//!
//! All of them implement the single [`Function`] trait, so the same query
//! constructs (see the `fdm-fql` crate) apply at every granularity. All of
//! them are *persistent*: mutation returns a new value sharing structure
//! with the old one, making snapshots (and therefore snapshot-isolation
//! transactions) O(1).
//!
//! ## Building relations in bulk
//!
//! [`RelationF::insert`] is the right tool for OLTP-style point writes; it
//! is the wrong tool for assembling an operator's whole output, where it
//! costs O(log n) time and `Arc` allocation per tuple. Operators use
//! [`RelationBuilder`] instead: push `(key, tuple)` pairs (already-sorted
//! input is detected and skips the sort entirely — the common case, since
//! operators iterate their input in key order), then `build()` bulk-loads
//! a balanced tree in O(n) via `fdm-storage`'s `from_sorted_vec`.
//! [`RelationF::from_sorted`] is the direct constructor for callers that
//! already hold a sorted run, and [`TupleF::from_shape`] builds a tuple
//! over a shared [`Shape`] from its values alone — the hot-path
//! combination the FQL joins use.
//!
//! ## Quick tour
//!
//! ```
//! use fdm_core::{DatabaseF, Domain, RelationF, TupleF, Value, ValueType};
//!
//! // tuples are functions: t1('foo') = 12
//! let t1 = TupleF::builder("t1").attr("name", "Alice").attr("foo", 12).build();
//! assert_eq!(t1.get("foo").unwrap(), Value::Int(12));
//!
//! // relations are functions: R1(1) = t1
//! let r1 = RelationF::new("R1", &["bar"]).insert(Value::Int(1), t1).unwrap();
//!
//! // databases are functions: DB('Table1') = R1
//! let db = DatabaseF::new("DB").with_entry("Table1", fdm_core::FnValue::from(r1));
//! assert!(db.contains("Table1"));
//!
//! // computed data is indistinguishable from stored data:
//! let squares = RelationF::computed("squares", &["n"], Domain::IntRange(1, 100), |k| {
//!     let n = k.as_int("n")?;
//!     Ok(Value::Fn(fdm_core::FnValue::from(
//!         TupleF::builder("sq").attr("n", n).attr("sq", n * n).build(),
//!     )))
//! });
//! assert_eq!(squares.lookup(&Value::Int(7)).unwrap().get("sq").unwrap(), Value::Int(49));
//! ```

#![warn(missing_docs)]

pub mod constraint;
pub mod database;
pub mod delta;
pub mod domain;
pub mod error;
pub mod function;
pub mod fxhash;
pub mod relation;
pub mod relationship;
pub mod shape;
pub mod stats;
pub mod tuple;
pub mod types;
pub mod value;

pub use constraint::Constraint;
pub use database::DatabaseF;
pub use delta::{apply_op, apply_ops, diff_relations, DbDelta, EntryDelta, Op, TupleChange};
pub use domain::{Domain, SharedDomain};
pub use error::{FdmError, Name, Result};
pub use fdm_storage::splitmix64;
pub use function::{apply1, FnValue, Function, LambdaF};
pub use fxhash::{FxHashMap, FxHashSet};
pub use relation::{RelationBuilder, RelationF};
pub use relationship::{Participant, RelationshipBuilder, RelationshipF};
pub use shape::{Shape, ShapeMemo};
pub use stats::{
    distinct_hint, estimate_distinct, AttrSketches, DistinctSketch, RelationStats,
    RelationshipStats,
};
pub use tuple::{DataKey, TupleBuilder, TupleF};
pub use types::ValueType;
pub use value::{Text, Value};
