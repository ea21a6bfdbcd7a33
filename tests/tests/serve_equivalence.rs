//! Batched ≡ single on a default store: a seeded Zipf write stream
//! committed through `commit_batch` groups and one commit per write, and
//! required to be **byte-identical at every committed version**, not just
//! at the end.
//!
//! The replay protocol makes "every version" well-defined even though
//! the batched store installs one version per *group* while the naive
//! store installs one per *write*: both stores flush at the same stream
//! positions, so each batched version `k` corresponds to a naive version
//! `n_k` (the number of writes in the first `k` groups), and
//! `served.as_of(k)` must equal `naive.as_of(n_k)` relation-for-relation,
//! key-for-key, data-key-for-data-key.
//!
//! The concurrent test runs `THREADS` client threads (CI pins 1 and 4 in
//! the `serve-stress` job) against one store; write deltas commute, so
//! the final state must still equal a sequential naive replay, and the
//! audit sum must be non-decreasing along the whole `as_of` chain.

use fdm_core::{DatabaseF, Value};
use fdm_tests::canonical_rows;
use fdm_txn::BatchPolicy;
use fdm_workload::{
    commit_serve_write, commit_serve_writes_batched, retail_store, serve_ops, total_credit,
    writes_of, RetailConfig, ServeConfig, ServeOp,
};
use std::sync::Arc;

fn threads() -> usize {
    std::env::var("THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or(4)
}

fn retail() -> RetailConfig {
    RetailConfig {
        customers: 300,
        ..RetailConfig::small()
    }
}

/// A whole database reduced to canonical content: every relation's
/// `(key, data-key)` rows, in relation-name order. Equal canonical
/// databases hold byte-identical data.
fn canonical_db(db: &DatabaseF) -> Vec<(String, Vec<(Value, Value)>)> {
    let mut rels: Vec<(String, Vec<(Value, Value)>)> = db
        .relations()
        .map(|(name, rel)| (name.as_ref().to_string(), canonical_rows(rel)))
        .collect();
    rels.sort_by(|a, b| a.0.cmp(&b.0));
    rels
}

fn mixed_stream(customers: usize, ops: usize, seed: u64, client: usize) -> Vec<ServeOp> {
    serve_ops(
        &ServeConfig {
            clients: 1,
            ops_per_client: ops,
            seed,
            skew: 1.1,
            read_pct: 50,
            scan_pct: 20,
            scan_len: 16,
        },
        customers,
        client,
    )
}

/// The deterministic differential: one client's write stream replayed
/// through batched group commits and through one commit per write,
/// flushing at the same stream positions. The two `as_of` chains must be
/// byte-identical at every group boundary — which is every committed
/// version of the batched store.
#[test]
fn served_stack_matches_naive_at_every_committed_version() {
    let retail = retail();
    let served = retail_store(&retail);
    let naive = retail_store(&retail);
    let policy = BatchPolicy::default();
    let group = 16usize;

    let writes = writes_of(&mixed_stream(retail.customers, 600, 0x5E01, 0));
    // (served version, naive version) at each group boundary
    let mut boundaries: Vec<(u64, u64)> = Vec::new();
    for chunk in writes.chunks(group) {
        commit_serve_writes_batched(&served, chunk, group, &policy);
        for (c, d) in chunk {
            commit_serve_write(&naive, *c, *d);
        }
        boundaries.push((served.version(), naive.version()));
    }

    // the batched store installed exactly one version per flushed group …
    assert_eq!(
        served.version(),
        boundaries.len() as u64,
        "group commit must install one version per group"
    );
    assert_eq!(
        naive.version(),
        writes.len() as u64,
        "naive path: one version per write"
    );
    assert!(
        served.version() < naive.version(),
        "batching must install fewer versions than one-at-a-time"
    );

    // … and the full as_of chains agree at every one of them
    assert_eq!(
        canonical_db(&served.snapshot()),
        canonical_db(&naive.snapshot())
    );
    for (k, &(sv, nv)) in boundaries.iter().enumerate() {
        assert_eq!(sv, k as u64 + 1, "served versions are the group sequence");
        let served_past = served.as_of(sv).expect("within history retention");
        let naive_past = naive.as_of(nv).expect("within history retention");
        assert_eq!(
            canonical_db(&served_past),
            canonical_db(&naive_past),
            "as_of diverged at group {sv} (naive version {nv})"
        );
    }
}

/// `THREADS` concurrent clients hammer one store through the batched
/// path; deltas commute, so the final database must equal a
/// sequential naive replay of all streams, and the audit sum must grow
/// monotonically along the served store's entire `as_of` chain.
#[test]
fn concurrent_clients_preserve_equivalence_and_audit_monotonicity() {
    let retail = retail();
    let clients = threads();
    let served = retail_store(&retail);
    let policy = BatchPolicy::default();

    let streams: Vec<Vec<(i64, i64)>> = (0..clients)
        .map(|c| writes_of(&mixed_stream(retail.customers, 400, 0x5E03, c)))
        .collect();
    std::thread::scope(|s| {
        for stream in &streams {
            let served = Arc::clone(&served);
            let policy = policy.clone();
            s.spawn(move || {
                // interleaved reads race the other clients' commits
                for chunk in stream.chunks(16) {
                    commit_serve_writes_batched(&served, chunk, 16, &policy);
                    let key = Value::Int(chunk[0].0);
                    let got = served
                        .read_point("customers", &key)
                        .expect("customers relation exists");
                    assert!(got.is_some(), "generated cids are dense");
                }
            });
        }
    });

    let naive = retail_store(&retail);
    for stream in &streams {
        for (c, d) in stream {
            commit_serve_write(&naive, *c, *d);
        }
    }
    assert_eq!(
        canonical_db(&served.snapshot()),
        canonical_db(&naive.snapshot()),
        "commuting writes: concurrent batched replay must equal sequential naive replay"
    );

    let expected: i64 = streams.iter().flatten().map(|(_, d)| d).sum();
    let base = total_credit(&served.as_of(0).expect("birth version is retained"));
    let mut last = base;
    for v in 1..=served.version() {
        let at = total_credit(&served.as_of(v).expect("within history retention"));
        assert!(
            at > last,
            "every committed group adds positive credit (v{v}: {at} vs {last})"
        );
        last = at;
    }
    assert_eq!(
        last - base,
        expected,
        "no lost updates across concurrent clients"
    );
}
