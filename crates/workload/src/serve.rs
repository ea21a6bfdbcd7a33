//! The serving workload: deterministic Zipf-skewed mixed operation
//! streams — point reads, range scans, transactional writes — replayed
//! by the serving-equivalence test suite.
//!
//! Like [`crate::driver`], everything derives from seeds: client `t`'s
//! stream is a pure function of `seed + t`, so a failing stream replays
//! exactly. The
//! op mix is expressed in percent so a config reads like the workload
//! descriptions in serving papers (80/10/10 read/scan/write).

use crate::zipf::Zipf;
use fdm_core::Value;
use fdm_txn::{BatchPolicy, Store, Transaction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One serving operation over the retail store's `customers` relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// Point read of one customer (Zipf-ranked: head customers are hot).
    PointRead {
        /// Target customer id.
        customer: i64,
    },
    /// Inclusive key-range scan of `len` customers starting at `start`.
    RangeScan {
        /// First customer id of the scan.
        start: i64,
        /// Number of consecutive ids covered.
        len: i64,
    },
    /// Transactional read-modify-write: add `delta` to the customer's
    /// `credit`.
    Write {
        /// Target customer id.
        customer: i64,
        /// Credit delta (1..=9, positive, so sums audit).
        delta: i64,
    },
}

/// Parameters of a serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Operations per client.
    pub ops_per_client: usize,
    /// Base seed; client `t` draws from `seed + t`.
    pub seed: u64,
    /// Zipf exponent for customer choice (reads *and* writes contend on
    /// the same head customers).
    pub skew: f64,
    /// Percent of operations that are point reads.
    pub read_pct: u8,
    /// Percent that are range scans; the remainder
    /// (`100 - read_pct - scan_pct`) are writes.
    pub scan_pct: u8,
    /// Ids covered per range scan.
    pub scan_len: i64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            clients: 4,
            ops_per_client: 1_000,
            seed: 77,
            skew: 1.1,
            read_pct: 80,
            scan_pct: 10,
            scan_len: 64,
        }
    }
}

/// The deterministic operation stream for one client thread.
pub fn serve_ops(cfg: &ServeConfig, n_customers: usize, client: usize) -> Vec<ServeOp> {
    assert!(
        cfg.read_pct as u16 + cfg.scan_pct as u16 <= 100,
        "op mix percentages exceed 100"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed + client as u64);
    let zipf = Zipf::new(n_customers.max(1), cfg.skew);
    (0..cfg.ops_per_client)
        .map(|_| {
            let roll = rng.random_range(0..100u8);
            let customer = zipf.sample(&mut rng) as i64 + 1;
            if roll < cfg.read_pct {
                ServeOp::PointRead { customer }
            } else if roll < cfg.read_pct + cfg.scan_pct {
                ServeOp::RangeScan {
                    start: customer,
                    len: cfg.scan_len.max(1),
                }
            } else {
                ServeOp::Write {
                    customer,
                    delta: rng.random_range(1..=9),
                }
            }
        })
        .collect()
}

/// The write operations of a stream, in stream order — what the
/// batched-vs-sequential differential oracle replays through both commit
/// paths.
pub fn writes_of(ops: &[ServeOp]) -> Vec<(i64, i64)> {
    ops.iter()
        .filter_map(|op| match op {
            ServeOp::Write { customer, delta } => Some((*customer, *delta)),
            _ => None,
        })
        .collect()
}

/// Commits one credit write through a fresh single transaction — the
/// naive serving path: one commit (one installed version, one WAL
/// record) per request.
pub fn commit_serve_write(store: &Arc<Store>, customer: i64, delta: i64) {
    store
        .run(|txn| {
            txn.modify_attr("customers", &Value::Int(customer), "credit", |v| {
                v.add(&Value::Int(delta))
            })
        })
        .expect("retail customers exist and the retry budget is generous");
}

/// Commits a write stream through the batched serving path: chunks of at
/// most `group` stream ops, each chunk **coalesced per customer** (one
/// member transaction per distinct target, deltas summed — in-batch
/// write-write overlap is a terminal conflict by design, and a single
/// client's repeat writes to a hot customer are exactly the compatible
/// small commits [`BatchPolicy`] exists to fold). Members a concurrent
/// commit knocked out of a group re-derive individually, just like a
/// conflicted single commit. Returns the number of flushed groups.
pub fn commit_serve_writes_batched(
    store: &Arc<Store>,
    writes: &[(i64, i64)],
    group: usize,
    policy: &BatchPolicy,
) -> usize {
    let mut flushes = 0usize;
    for chunk in writes.chunks(group.max(1)) {
        let mut per_customer: BTreeMap<i64, i64> = BTreeMap::new();
        for (customer, delta) in chunk {
            *per_customer.entry(*customer).or_insert(0) += delta;
        }
        let txns: Vec<Transaction> = per_customer
            .iter()
            .map(|(customer, delta)| {
                let mut txn = store.begin();
                txn.modify_attr("customers", &Value::Int(*customer), "credit", |v| {
                    v.add(&Value::Int(*delta))
                })
                .expect("retail customers exist");
                txn
            })
            .collect();
        let rejected: Vec<(i64, i64)> = store
            .commit_batch(txns, policy)
            .into_iter()
            .zip(per_customer.iter())
            .filter(|(outcome, _)| outcome.is_err())
            .map(|(_, (customer, delta))| (*customer, *delta))
            .collect();
        for (customer, delta) in rejected {
            store
                .run_with(&policy.commit, |txn| {
                    txn.modify_attr("customers", &Value::Int(customer), "credit", |v| {
                        v.add(&Value::Int(delta))
                    })
                })
                .expect("re-derived member lands under the retry budget");
        }
        flushes += 1;
    }
    flushes
}

/// Total `credit` across customers — the audit sum every serving run
/// must conserve (writes only ever add positive deltas).
pub fn total_credit(db: &fdm_core::DatabaseF) -> i64 {
    db.relation("customers")
        .expect("retail store has customers")
        .tuples()
        .expect("unique relation")
        .iter()
        .map(|(_, t)| {
            t.get("credit")
                .and_then(|v| v.as_int("credit"))
                .expect("credit is an int")
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::retail_store;
    use crate::retail::RetailConfig;

    #[test]
    fn batched_writes_conserve_the_audit_sum() {
        let writes: Vec<(i64, i64)> = serve_ops(
            &ServeConfig {
                read_pct: 0,
                scan_pct: 0,
                ops_per_client: 200,
                ..ServeConfig::default()
            },
            50,
            0,
        )
        .iter()
        .filter_map(|op| match op {
            ServeOp::Write { customer, delta } => Some((*customer, *delta)),
            _ => None,
        })
        .collect();
        assert_eq!(writes.len(), 200);
        let expected: i64 = writes.iter().map(|(_, d)| d).sum();

        let sequential = retail_store(&RetailConfig::small());
        for (c, d) in &writes {
            commit_serve_write(&sequential, *c, *d);
        }
        let batched = retail_store(&RetailConfig::small());
        let flushes = commit_serve_writes_batched(&batched, &writes, 16, &BatchPolicy::default());
        assert!(flushes < writes.len(), "batching folds commits");
        assert!(
            batched.version() < sequential.version(),
            "fewer installed versions: {} batched vs {} sequential",
            batched.version(),
            sequential.version()
        );
        assert_eq!(total_credit(&sequential.snapshot()), expected);
        assert_eq!(total_credit(&batched.snapshot()), expected);
    }

    #[test]
    fn streams_are_deterministic_per_client() {
        let cfg = ServeConfig::default();
        assert_eq!(serve_ops(&cfg, 100, 0), serve_ops(&cfg, 100, 0));
        assert_ne!(serve_ops(&cfg, 100, 0), serve_ops(&cfg, 100, 1));
    }

    #[test]
    fn mix_respects_percentages_roughly() {
        let cfg = ServeConfig {
            ops_per_client: 10_000,
            ..ServeConfig::default()
        };
        let ops = serve_ops(&cfg, 1000, 3);
        let reads = ops
            .iter()
            .filter(|o| matches!(o, ServeOp::PointRead { .. }))
            .count();
        let scans = ops
            .iter()
            .filter(|o| matches!(o, ServeOp::RangeScan { .. }))
            .count();
        let writes = writes_of(&ops).len();
        assert_eq!(reads + scans + writes, ops.len());
        // generous bounds: the roll is uniform over 100
        assert!((7_500..8_500).contains(&reads), "reads {reads}");
        assert!((600..1_400).contains(&scans), "scans {scans}");
        assert!((600..1_400).contains(&writes), "writes {writes}");
    }

    #[test]
    fn zipf_skew_concentrates_on_head_customers() {
        let cfg = ServeConfig {
            ops_per_client: 5_000,
            skew: 1.2,
            ..ServeConfig::default()
        };
        let ops = serve_ops(&cfg, 10_000, 0);
        let head = ops
            .iter()
            .filter_map(|o| match o {
                ServeOp::PointRead { customer } => Some(*customer),
                _ => None,
            })
            .filter(|&c| c <= 100)
            .count();
        let total = ops
            .iter()
            .filter(|o| matches!(o, ServeOp::PointRead { .. }))
            .count();
        assert!(
            head * 2 > total,
            "with skew 1.2 the top 1% of customers draw most reads ({head}/{total})"
        );
    }
}
