//! # fdm-workload — synthetic data for the reproduction benchmarks
//!
//! Generates the paper's Fig. 1 retail schema at configurable scale,
//! fan-out, and Zipf skew, in **both** FDM and relational form from the
//! same seed — so every figure's benchmark runs the two engines on
//! byte-identical logical data.

#![warn(missing_docs)]

pub mod driver;
pub mod retail;
pub mod serve;
pub mod zipf;

pub use driver::{
    apply_writer_op, durable_retail_store, retail_db, retail_store, run_restart_cycles,
    run_writers, writer_ops, CommitRecord, MixedConfig, RestartReport, WriterOp,
};
pub use retail::{generate, to_fdm, to_relational, RetailConfig, RetailData, RetailRelational};
pub use serve::{
    commit_serve_write, commit_serve_writes_batched, serve_ops, total_credit, writes_of,
    ServeConfig, ServeOp,
};
pub use zipf::Zipf;
