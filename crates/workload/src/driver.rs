//! A concurrent transactional driver over the retail workload: the
//! shared harness behind the txn stress tests and the commit-throughput
//! benchmark series.
//!
//! Everything is deterministic from seeds — each writer thread derives
//! its operation list from `seed + thread`, and commit retry pacing uses
//! the seeded backoff of the store's `CommitPolicy` — so a failing run
//! replays. Concurrency still interleaves nondeterministically; the
//! point is that the *inputs* never vary.

use crate::retail::{generate, RetailConfig};
use crate::zipf::Zipf;
use fdm_core::{RelationBuilder, Result, Value};
use fdm_txn::{CommitPolicy, DurabilityConfig, DurabilityError, Store, Transaction, Version};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Builds a transactional [`Store`] over the retail database, with every
/// customer given a `credit` attribute (initially 0) for writers to
/// contend on.
pub fn retail_store(cfg: &RetailConfig) -> Arc<Store> {
    Store::new(retail_db(cfg))
}

/// Builds the retail database (with zeroed `credit`) used by both store
/// constructors below — public so durability-aware tests can construct
/// stores with custom [`fdm_txn::StoreConfig`]s over the same schema.
pub fn retail_db(cfg: &RetailConfig) -> fdm_core::DatabaseF {
    let data = generate(cfg);
    let mut customers = RelationBuilder::new("customers", &["cid"]);
    for (cid, name, age, state) in &data.customers {
        let tuple = customers
            .tuple(format!("c{cid}"))
            .attr("name", name.as_str())
            .attr("age", *age)
            .attr("state", *state)
            .attr("credit", 0i64)
            .build();
        customers.push(Value::Int(*cid), tuple);
    }
    let customers = customers
        .build()
        .expect("generated cids are unique and sorted");
    crate::retail::fdm_around(&data, customers)
}

/// [`retail_store`], but **durable**: creates a fresh WAL + checkpoint
/// directory per `dcfg` (the version-0 checkpoint is the generated
/// retail database). The crash/restart harnesses open this directory
/// again with [`fdm_txn::Store::open`] after a simulated crash.
pub fn durable_retail_store(
    cfg: &RetailConfig,
    dcfg: DurabilityConfig,
) -> std::result::Result<Arc<Store>, DurabilityError> {
    Store::create(
        retail_db(cfg),
        fdm_txn::StoreConfig {
            durability: Some(dcfg),
            ..fdm_txn::StoreConfig::default()
        },
    )
}

/// What one crash/restart cycle observed.
#[derive(Debug, Clone)]
pub struct RestartReport {
    /// Version found when the cycle opened the store — 0 on the first
    /// cycle, otherwise whatever recovery rebuilt. With
    /// `SyncPolicy::Always` this must equal the previous cycle's
    /// `committed` (no acknowledged commit lost).
    pub recovered: Version,
    /// Version at the end of this cycle's writer run (before the crash).
    pub committed: Version,
    /// Highest version the WAL had acknowledged durable at that point.
    pub durable: Version,
    /// Total `credit` across customers at the end of the run — the audit
    /// sum the next cycle must recover.
    pub credit: i64,
}

/// Runs `cycles` crash/restart rounds against one durability directory:
/// each round opens the store (creating it on the first round), runs the
/// concurrent writer mix, records the committed/durable versions, then
/// *drops the store without any shutdown protocol* — the in-process
/// equivalent of `kill -9` — and the next round recovers. Returns one
/// report per cycle; the caller asserts monotonicity / no-loss.
pub fn run_restart_cycles(
    dir: &std::path::Path,
    retail: &RetailConfig,
    mixed: &MixedConfig,
    cycles: usize,
) -> std::result::Result<Vec<RestartReport>, DurabilityError> {
    let mut out = Vec::with_capacity(cycles);
    for cycle in 0..cycles {
        let store = if cycle == 0 {
            durable_retail_store(retail, DurabilityConfig::new(dir))?
        } else {
            Store::open(dir)?
        };
        let recovered = store.version();
        let cfg = MixedConfig {
            seed: mixed.seed + cycle as u64 * 7919,
            ..mixed.clone()
        };
        run_writers(&store, &cfg);
        let committed = store.version();
        let durable = store.durable_version().unwrap_or(0);
        let db = store.snapshot();
        let rel = db
            .relation("customers")
            .expect("retail store has customers");
        let credit: i64 = rel
            .tuples()
            .expect("unique relation")
            .iter()
            .map(|(_, t)| {
                t.get("credit")
                    .and_then(|v| v.as_int("credit"))
                    .expect("credit is an int")
            })
            .sum();
        out.push(RestartReport {
            recovered,
            committed,
            durable,
            credit,
        });
        drop(store); // no shutdown protocol: the next open() is a recovery
    }
    Ok(out)
}

/// Parameters of a mixed read/write run.
#[derive(Debug, Clone)]
pub struct MixedConfig {
    /// Concurrent writer threads.
    pub threads: usize,
    /// Committed transactions per writer thread.
    pub ops_per_thread: usize,
    /// Base seed; thread t draws from `seed + t`.
    pub seed: u64,
    /// Zipf exponent for customer choice (0 = uniform; higher = more
    /// write-write contention on head customers).
    pub skew: f64,
}

impl Default for MixedConfig {
    fn default() -> Self {
        MixedConfig {
            threads: 4,
            ops_per_thread: 50,
            seed: 99,
            skew: 0.8,
        }
    }
}

/// One writer operation: add `delta` to a customer's `credit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriterOp {
    /// Target customer id.
    pub customer: i64,
    /// Credit delta (1..=9, always positive so sums are easy to audit).
    pub delta: i64,
}

/// One committed transaction, as observed by the thread that ran it.
#[derive(Debug, Clone)]
pub struct CommitRecord {
    /// The version the commit installed.
    pub version: Version,
    /// Which writer thread committed it.
    pub thread: usize,
    /// The operation it applied.
    pub op: WriterOp,
    /// Closure executions the commit took (1 = no conflict).
    pub attempts: usize,
}

/// The deterministic operation list for one writer thread.
pub fn writer_ops(cfg: &MixedConfig, n_customers: usize, thread: usize) -> Vec<WriterOp> {
    let mut rng = StdRng::seed_from_u64(cfg.seed + thread as u64);
    let zipf = Zipf::new(n_customers.max(1), cfg.skew);
    (0..cfg.ops_per_thread)
        .map(|_| WriterOp {
            customer: zipf.sample(&mut rng) as i64 + 1,
            delta: rng.random_range(1..=9),
        })
        .collect()
}

/// Applies one writer op inside a transaction: a read-modify-write of the
/// customer's `credit` (the shape that *must* be re-derived, not
/// replayed, after a conflict).
pub fn apply_writer_op(txn: &mut Transaction, op: &WriterOp) -> Result<()> {
    txn.modify_attr("customers", &Value::Int(op.customer), "credit", |v| {
        v.add(&Value::Int(op.delta))
    })
}

/// Runs `cfg.threads` concurrent writers, each committing its
/// deterministic op list via [`Store::run_with`] (closure re-derivation
/// on conflict). Returns every commit, unordered.
///
/// Panics if any operation fails to commit — with the generous retry
/// budget used here, that is a harness bug, not contention.
pub fn run_writers(store: &Arc<Store>, cfg: &MixedConfig) -> Vec<CommitRecord> {
    let n_customers = store
        .snapshot()
        .relation("customers")
        .expect("retail store has customers")
        .len();
    let policy = CommitPolicy::default().with_max_attempts(256);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|thread| {
                let store = Arc::clone(store);
                let policy = policy.clone();
                let ops = writer_ops(cfg, n_customers, thread);
                s.spawn(move || {
                    ops.into_iter()
                        .map(|op| {
                            let (_, outcome) = store
                                .run_with(&policy, |txn| apply_writer_op(txn, &op))
                                .expect("generous retry budget always lands");
                            CommitRecord {
                                version: outcome.version,
                                thread,
                                op,
                                attempts: outcome.attempts,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("writer thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_ops_are_deterministic_per_thread() {
        let cfg = MixedConfig::default();
        assert_eq!(writer_ops(&cfg, 50, 1), writer_ops(&cfg, 50, 1));
        assert_ne!(writer_ops(&cfg, 50, 1), writer_ops(&cfg, 50, 2));
        assert!(writer_ops(&cfg, 50, 0)
            .iter()
            .all(|op| (1..=50).contains(&op.customer) && (1..=9).contains(&op.delta)));
    }

    #[test]
    fn retail_store_has_zeroed_credit() {
        let store = retail_store(&RetailConfig::small());
        let db = store.snapshot();
        let rel = db.relation("customers").unwrap();
        assert_eq!(rel.len(), 50);
        let t = rel.lookup(&Value::Int(1)).unwrap();
        assert_eq!(t.get("credit").unwrap(), Value::Int(0));
        assert!(t.get("name").is_ok(), "original attributes survive");
    }

    #[test]
    fn restart_cycles_recover_every_acknowledged_commit() {
        let dir = std::env::temp_dir().join(format!("fdm-workload-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mixed = MixedConfig {
            threads: 2,
            ops_per_thread: 5,
            ..MixedConfig::default()
        };
        let reports = run_restart_cycles(&dir, &RetailConfig::small(), &mixed, 3).unwrap();
        assert_eq!(reports.len(), 3);
        let mut prev_committed = 0;
        let mut prev_credit = 0;
        for r in &reports {
            assert_eq!(r.recovered, prev_committed, "no acknowledged commit lost");
            assert_eq!(r.committed, r.recovered + 10, "2 threads x 5 ops per cycle");
            assert_eq!(
                r.durable, r.committed,
                "SyncPolicy::Always acks are durable"
            );
            assert!(r.credit > prev_credit, "credit only ever grows");
            prev_committed = r.committed;
            prev_credit = r.credit;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_writers_commits_every_op_exactly_once() {
        let store = retail_store(&RetailConfig::small());
        let cfg = MixedConfig {
            threads: 2,
            ops_per_thread: 10,
            ..MixedConfig::default()
        };
        let records = run_writers(&store, &cfg);
        assert_eq!(records.len(), 20);
        let mut versions: Vec<_> = records.iter().map(|r| r.version).collect();
        versions.sort_unstable();
        assert_eq!(
            versions,
            (1..=20).collect::<Vec<_>>(),
            "one version per commit"
        );
        let total: i64 = records.iter().map(|r| r.op.delta).sum();
        let rel = store.snapshot();
        let rel = rel.relation("customers").unwrap();
        let credit: i64 = rel
            .tuples()
            .unwrap()
            .iter()
            .map(|(_, t)| t.get("credit").unwrap().as_int("credit").unwrap())
            .sum();
        assert_eq!(credit, total, "no lost updates");
    }
}
