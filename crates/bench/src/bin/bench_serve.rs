//! The million-entity serving-path benchmark (`fig15_serving`): a 1M+
//! entity retail database served through the PR 10 stack — key-range
//! sharded relation bodies (`fdm_core::shard`), group-committed write
//! batches (`fdm_txn::BatchPolicy`), and the fingerprint-keyed hot-tuple
//! cache — under Zipf-skewed concurrent clients.
//!
//! Three kinds of numbers come out, with different gating fates:
//!
//! * **Throughput and p50/p99 latency** of the concurrent mixed run
//!   (point reads / range scans / batched transactional writes) —
//!   *absolute*, machine-dependent figures: the served-request analogue
//!   of `fig11_txn_commit`. Recorded for trend visibility, **never
//!   gated** — `bench_gate` explains why next to `RECORDED_METRICS`.
//! * **`serve_read_speedup`** — the same Zipf point-read sequence served
//!   through the hot-tuple cache vs the naive per-request path (resolve
//!   the relation from a fresh snapshot, walk the persistent tree).
//!   Both sides run in this process on this machine, so the ratio is
//!   algorithmic; it follows the record-then-arm arc in `bench_gate`.
//! * **`serve_write_speedup`** — the same write stream committed one
//!   transaction per request vs folded into group commits
//!   (`Store::commit_batch`, writes coalesced per hot customer), both on
//!   a durable store with fsync elided so the ratio counts amortized
//!   work (encode, WAL append, install, record) rather than medium
//!   latency. Also a same-process ratio; same record-then-arm arc.
//!
//! The sharded-relation series (bulk split, range scans, per-shard
//! parallel operators at `THREADS=1/4`) is recorded inside the entry
//! only: on the 1-CPU CI runner thread counts measure scheduling
//! overhead, not the algorithm (see ROADMAP).
//!
//! Every path is differentially checked before numbers are published:
//! cached reads must serve the exact tuple the tree holds, batched and
//! sequential stores must agree on the audit sum, and the sharded
//! relation must merge back byte-identical. The deeper guarantees
//! (as-of equivalence at every committed version, boundary-key routing)
//! are pinned by `tests/tests/serve_equivalence.rs`,
//! `shard_equivalence.rs`, and `cache_invalidation.rs`.
//!
//! ```text
//! cargo run -p fdm-bench --bin bench_serve --release            # full: 1M+
//! #   entities, appends the pr10_serving_path entry to BENCH_fig4_fig6.json
//! cargo run -p fdm-bench --bin bench_serve --release -- --quick \
//!     --merge bench_quick.json                                  # CI smoke:
//! #   merges the serve metrics into the bench_bulk quick summary so
//! #   bench_gate sees one flat file
//! ```

use fdm_core::{ShardMap, ShardedRelation, Value};
use fdm_txn::{BatchPolicy, CommitPolicy, DurabilityConfig, Store, StoreConfig, SyncPolicy};
use fdm_workload::{
    commit_serve_write, commit_serve_writes_batched, retail_store_with, serve_ops, total_credit,
    writes_of, RetailConfig, ServeConfig, ServeOp,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Criterion-style median: `samples` timed runs, median per-run nanos
/// (one warm-up run outside the timings).
fn median_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_nanos() as f64);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

/// Interleaved A/B medians: one warm-up of each side, then `samples`
/// rounds timing both, alternating which goes first (`a b`, `b a`, …).
/// Measuring one side to completion before starting the other lets the
/// first loop page in tuples the second then reads warm — at the
/// million-entity scale that ordering bias was larger than the effect
/// being measured.
fn interleaved_median_ns(samples: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_nanos() as f64
    };
    a();
    b();
    let mut ta: Vec<f64> = Vec::with_capacity(samples);
    let mut tb: Vec<f64> = Vec::with_capacity(samples);
    for round in 0..samples {
        if round % 2 == 0 {
            ta.push(time(&mut a));
            tb.push(time(&mut b));
        } else {
            tb.push(time(&mut b));
            ta.push(time(&mut a));
        }
    }
    ta.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
    tb.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
    (ta[ta.len() / 2], tb[tb.len() / 2])
}

/// Runs `f` with `THREADS` and `FDM_PAR_CUTOFF` pinned (the parallel
/// layer reads both per call), restoring previous values afterwards. The
/// cutoff is pinned low so the chunked path is exercised even at the CI
/// smoke scale.
fn with_threads_cutoff<T>(n: &str, cutoff: &str, f: impl FnOnce() -> T) -> T {
    let saved_t = std::env::var("THREADS").ok();
    let saved_c = std::env::var("FDM_PAR_CUTOFF").ok();
    std::env::set_var("THREADS", n);
    std::env::set_var("FDM_PAR_CUTOFF", cutoff);
    let out = f();
    match saved_t {
        Some(v) => std::env::set_var("THREADS", v),
        None => std::env::remove_var("THREADS"),
    }
    match saved_c {
        Some(v) => std::env::set_var("FDM_PAR_CUTOFF", v),
        None => std::env::remove_var("FDM_PAR_CUTOFF"),
    }
    out
}

/// `pct`-th percentile of an ascending latency series, in microseconds.
fn percentile_us(sorted_ns: &[u64], pct: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * pct / 100.0).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)] as f64 / 1_000.0
}

/// What one serving client observed.
#[derive(Default)]
struct ClientReport {
    read_ns: Vec<u64>,
    scan_ns: Vec<u64>,
    flush_ns: Vec<u64>,
    delta_sum: i64,
    ops: usize,
}

/// The concurrent mixed run: every client replays its deterministic
/// Zipf stream — point reads through the cache front, range scans off
/// fresh snapshots, writes buffered and flushed through the batched
/// group-commit path every `flush_every` writes.
fn run_clients(
    store: &Arc<Store>,
    cfg: &ServeConfig,
    n_customers: usize,
    flush_every: usize,
) -> Vec<ClientReport> {
    let policy = BatchPolicy::default().with_commit(CommitPolicy::default().with_max_attempts(256));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|client| {
                let store = Arc::clone(store);
                let policy = policy.clone();
                let ops = serve_ops(cfg, n_customers, client);
                s.spawn(move || {
                    let mut rep = ClientReport::default();
                    let mut pending: Vec<(i64, i64)> = Vec::new();
                    let flush = |pending: &mut Vec<(i64, i64)>, rep: &mut ClientReport| {
                        if pending.is_empty() {
                            return;
                        }
                        let t0 = Instant::now();
                        commit_serve_writes_batched(&store, pending, flush_every, &policy);
                        rep.flush_ns.push(t0.elapsed().as_nanos() as u64);
                        pending.clear();
                    };
                    for op in &ops {
                        rep.ops += 1;
                        match op {
                            ServeOp::PointRead { customer } => {
                                let t0 = Instant::now();
                                let got = store
                                    .read_point("customers", &Value::Int(*customer))
                                    .expect("customers relation exists");
                                rep.read_ns.push(t0.elapsed().as_nanos() as u64);
                                assert!(got.is_some(), "generated cids are dense");
                            }
                            ServeOp::RangeScan { start, len } => {
                                let t0 = Instant::now();
                                let db = store.snapshot();
                                let rel =
                                    db.relation("customers").expect("customers relation exists");
                                let hi = Value::Int(start + len - 1);
                                let rows = rel.range(Some(&Value::Int(*start)), Some(&hi));
                                black_box(rows.len());
                                rep.scan_ns.push(t0.elapsed().as_nanos() as u64);
                            }
                            ServeOp::Write { customer, delta } => {
                                pending.push((*customer, *delta));
                                rep.delta_sum += delta;
                                if pending.len() >= flush_every {
                                    flush(&mut pending, &mut rep);
                                }
                            }
                        }
                    }
                    flush(&mut pending, &mut rep);
                    rep
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serving client panicked"))
            .collect()
    })
}

/// One scale's complete `fig15_serving` object. The two `*_speedup` keys
/// come **last**: `bench_gate` scans for the last occurrence of each
/// key, and in the full entry this object's quick-scale twin
/// (`quick_gate_baseline`) is appended after the full-scale one so the
/// committed baseline is measured at exactly the scale CI reproduces.
fn measure_serving(scale: &RetailConfig, samples: usize, quick: bool) -> String {
    // The cache is deliberately *small* relative to the database: a
    // serving cache earns its keep by keeping the Zipf head resident in
    // a compact, always-warm table. Sizing it toward the working set
    // (64k+ slots) made every probe a cold-memory walk at the full scale
    // and cost more than the tree it was fronting.
    let store = retail_store_with(
        scale,
        StoreConfig {
            hot_cache: Some(4_096),
            ..StoreConfig::default()
        },
    );
    let base_db = store.snapshot();
    let customers = scale.customers;
    let products = base_db.relation("products").expect("retail schema").len();
    let orders = base_db.relationship("order").expect("retail schema").len();
    let entities = customers + products + orders;
    println!(
        "bench_serve: {entities} entities ({customers} customers, {products} products, {orders} orders)"
    );
    if !quick {
        assert!(
            entities >= 1_000_000,
            "the full serving benchmark must cover a million-entity database"
        );
    }

    // ── concurrent mixed run: throughput + latency percentiles ──
    let mixed = ServeConfig {
        clients: 4,
        ops_per_client: if quick { 500 } else { 5_000 },
        seed: 0xFD10,
        skew: 1.1,
        read_pct: 80,
        scan_pct: 10,
        scan_len: 64,
    };
    let wall = Instant::now();
    let reports = run_clients(&store, &mixed, customers, 16);
    let elapsed = wall.elapsed().as_secs_f64();
    let total_ops: usize = reports.iter().map(|r| r.ops).sum();
    let serve_ops_per_sec = total_ops as f64 / elapsed;
    let mut read_ns: Vec<u64> = reports.iter().flat_map(|r| r.read_ns.clone()).collect();
    let mut scan_ns: Vec<u64> = reports.iter().flat_map(|r| r.scan_ns.clone()).collect();
    let mut flush_ns: Vec<u64> = reports.iter().flat_map(|r| r.flush_ns.clone()).collect();
    read_ns.sort_unstable();
    scan_ns.sort_unstable();
    flush_ns.sort_unstable();
    // audit: every client's deltas landed exactly once
    let expected: i64 = reports.iter().map(|r| r.delta_sum).sum();
    assert_eq!(
        total_credit(&store.snapshot()),
        expected,
        "concurrent batched writes conserve the audit sum"
    );
    let stats = store.cache_stats().expect("hot cache is on");
    let probes = stats.hits + stats.misses + stats.stale_misses;
    let hit_rate = stats.hits as f64 / probes.max(1) as f64;
    println!(
        "bench_serve: {total_ops} ops in {elapsed:.2}s ({serve_ops_per_sec:.0}/s), cache hit rate {hit_rate:.2}"
    );

    // ── serve_read_speedup: cache front vs naive per-request tree walk ──
    let read_only = ServeConfig {
        read_pct: 100,
        scan_pct: 0,
        ops_per_client: if quick { 2_000 } else { 10_000 },
        ..mixed.clone()
    };
    let reads: Vec<i64> = serve_ops(&read_only, customers, 0)
        .iter()
        .map(|op| match op {
            ServeOp::PointRead { customer } => *customer,
            _ => unreachable!("read_pct is 100"),
        })
        .collect();
    // sanity: the cached path serves the exact Arc the tree holds (the
    // invalidation contract makes anything else impossible)
    for &c in reads.iter().take(50) {
        let key = Value::Int(c);
        let cached = store
            .read_point("customers", &key)
            .expect("customers relation exists")
            .expect("dense cids");
        let db = store.snapshot();
        let naive = db
            .relation("customers")
            .expect("customers relation exists")
            .lookup(&key)
            .expect("dense cids");
        assert!(
            Arc::ptr_eq(&cached, &naive),
            "cached read diverges from the tree for cid {c}"
        );
    }
    let (read_cached, read_naive) = interleaved_median_ns(
        samples,
        || {
            for &c in &reads {
                black_box(
                    store
                        .read_point("customers", &Value::Int(c))
                        .expect("customers relation exists"),
                );
            }
        },
        || {
            for &c in &reads {
                let db = store.snapshot();
                let rel = db.relation("customers").expect("customers relation exists");
                black_box(rel.lookup(&Value::Int(c)));
            }
        },
    );
    let serve_read_speedup = read_naive / read_cached;

    // ── serve_write_speedup: one commit per request vs group commit ──
    //
    // Both sides run on a *durable* store so the ratio covers what group
    // commit actually amortizes: one writeset encode + WAL record + log
    // entry + history record + sequencer turn per group instead of per
    // request. The sync policy is `Never` on both sides — fsync latency
    // is medium-dependent and would not cancel in the ratio (the fig12
    // series records the fsync axis separately); buffered appends keep
    // this an algorithmic count-of-work comparison.
    let write_only = ServeConfig {
        read_pct: 0,
        scan_pct: 0,
        ops_per_client: if quick { 400 } else { 2_000 },
        ..mixed.clone()
    };
    let writes = writes_of(&serve_ops(&write_only, customers, 1));
    let durable_store = |tag: &str| {
        let dir =
            std::env::temp_dir().join(format!("fdm-bench-serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dcfg = DurabilityConfig::new(&dir)
            .with_sync(SyncPolicy::Never)
            .with_checkpoint_every(None);
        let store = Store::create(
            base_db.clone(),
            StoreConfig {
                durability: Some(dcfg),
                hot_cache: Some(4_096),
                ..StoreConfig::default()
            },
        )
        .expect("fresh scratch dir");
        (store, dir)
    };
    let (seq_store, seq_dir) = durable_store("seq");
    let write_sequential = median_ns(samples, || {
        for (c, d) in &writes {
            commit_serve_write(&seq_store, *c, *d);
        }
    });
    let (batch_store, batch_dir) = durable_store("batch");
    let policy = BatchPolicy::default().with_max_txns(128);
    let write_batched = median_ns(samples, || {
        commit_serve_writes_batched(&batch_store, &writes, 128, &policy);
    });
    let serve_write_speedup = write_sequential / write_batched;
    // both stores replayed the identical stream the same number of times
    assert_eq!(
        total_credit(&seq_store.snapshot()),
        total_credit(&batch_store.snapshot()),
        "batched writes diverge from sequential"
    );
    assert!(
        batch_store.version() < seq_store.version(),
        "group commit installs fewer versions"
    );
    drop(seq_store);
    drop(batch_store);
    let _ = std::fs::remove_dir_all(&seq_dir);
    let _ = std::fs::remove_dir_all(&batch_dir);

    // ── sharded relation series (recorded-only: 1-CPU runner) ──
    let rel = base_db
        .relation("customers")
        .expect("customers relation exists");
    let shard_count = 8;
    let map = ShardMap::for_relation(&rel, shard_count).expect("ascending stored keys");
    let sharded = ShardedRelation::from_relation(&rel, map.clone()).expect("clean split");
    assert_eq!(sharded.len(), rel.len());
    assert_eq!(
        sharded.to_relation().stored_keys(),
        rel.stored_keys(),
        "shard merge must be byte-identical"
    );
    let shard_build = median_ns(samples, || {
        black_box(ShardedRelation::from_relation(&rel, map.clone()).expect("clean split"));
    });
    let scans: Vec<(i64, i64)> = serve_ops(&mixed, customers, 2)
        .iter()
        .filter_map(|op| match op {
            ServeOp::RangeScan { start, len } => Some((*start, *len)),
            _ => None,
        })
        .collect();
    for (lo, len) in scans.iter().take(10) {
        let (lo, hi) = (Value::Int(*lo), Value::Int(lo + len - 1));
        let a: Vec<Value> = sharded
            .range(Some(&lo), Some(&hi))
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let b: Vec<Value> = rel
            .range(Some(&lo), Some(&hi))
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(a, b, "sharded range scan diverges");
    }
    let scan_sharded = median_ns(samples, || {
        for (lo, len) in &scans {
            let hi = Value::Int(lo + len - 1);
            black_box(sharded.range(Some(&Value::Int(*lo)), Some(&hi)).len());
        }
    });
    let scan_unsharded = median_ns(samples, || {
        for (lo, len) in &scans {
            let hi = Value::Int(lo + len - 1);
            black_box(rel.range(Some(&Value::Int(*lo)), Some(&hi)).len());
        }
    });
    let shard_filter = |shard: &fdm_core::RelationF| {
        fdm_fql::filter_fn(shard, |t| Ok(t.get("age")?.as_int("age")? > 42))
    };
    let map_shards_t1 = with_threads_cutoff("1", "64", || {
        median_ns(samples, || {
            black_box(sharded.map_shards(shard_filter).expect("filter per shard"));
        })
    });
    let map_shards_t4 = with_threads_cutoff("4", "64", || {
        median_ns(samples, || {
            black_box(sharded.map_shards(shard_filter).expect("filter per shard"));
        })
    });

    format!(
        "{{\n      \"entities\": {entities},\n      \"customers\": {customers},\n      \"products\": {products},\n      \"orders\": {orders},\n      \"clients\": {},\n      \"ops\": {total_ops},\n      \"cache_hit_rate\": {hit_rate:.3},\n      \"serve_ops_per_sec\": {serve_ops_per_sec:.0},\n      \"serve_read_p50_us\": {:.2},\n      \"serve_read_p99_us\": {:.2},\n      \"serve_scan_p50_us\": {:.2},\n      \"serve_scan_p99_us\": {:.2},\n      \"serve_flush_p50_us\": {:.2},\n      \"serve_flush_p99_us\": {:.2},\n      \"fig15_shards\": {{ \"shard_count\": {shard_count}, \"build_median_ns\": {shard_build}, \"sharded_scan_median_ns\": {scan_sharded}, \"unsharded_scan_median_ns\": {scan_unsharded}, \"map_shards_t1_median_ns\": {map_shards_t1}, \"map_shards_t4_median_ns\": {map_shards_t4} }},\n      \"fig15_reads\": {{ \"naive_median_ns\": {read_naive}, \"cached_median_ns\": {read_cached} }},\n      \"fig15_writes\": {{ \"sequential_median_ns\": {write_sequential}, \"batched_median_ns\": {write_batched} }},\n      \"serve_read_speedup\": {serve_read_speedup:.3},\n      \"serve_write_speedup\": {serve_write_speedup:.3}\n    }}",
        mixed.clients,
        percentile_us(&read_ns, 50.0),
        percentile_us(&read_ns, 99.0),
        percentile_us(&scan_ns, 50.0),
        percentile_us(&scan_ns, 99.0),
        percentile_us(&flush_ns, 50.0),
        percentile_us(&flush_ns, 99.0),
    )
}

fn quick_scale() -> RetailConfig {
    RetailConfig {
        customers: 10_000,
        products: 2_000,
        orders: 20_000,
        product_skew: 1.0,
        inactive_customers: 0.2,
        seed: 0xFD17,
    }
}

fn full_scale() -> RetailConfig {
    RetailConfig {
        customers: 400_000,
        products: 100_000,
        orders: 520_000,
        product_skew: 1.0,
        inactive_customers: 0.2,
        seed: 0xFD17,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let merge_path = args
        .iter()
        .position(|a| a == "--merge")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "serve_quick.json".into());

    if quick {
        let obj = measure_serving(&quick_scale(), 5, true);
        let standalone =
            format!("{{\n  \"entry\": \"serve_quick\",\n  \"fig15_serving\":\n    {obj}\n}}\n");
        match merge_path {
            // merge into the bench_bulk quick summary so bench_gate reads
            // one flat file (it text-scans for the last key occurrence,
            // so a nested object merges cleanly)
            Some(path) => {
                let existing = std::fs::read_to_string(&path).unwrap_or_default();
                let trimmed = existing.trim_end();
                match trimmed.strip_suffix('}') {
                    Some(body) if !trimmed.is_empty() => {
                        let merged = format!(
                            "{},\n  \"fig15_serving\":\n    {obj}\n}}\n",
                            body.trim_end().trim_end_matches(',')
                        );
                        std::fs::write(&path, merged).expect("merge quick summary");
                        println!("merged serve metrics into {path}");
                    }
                    _ => {
                        std::fs::write(&path, standalone).expect("write quick summary");
                        println!("wrote {path} (no existing summary to merge into)");
                    }
                }
            }
            None => {
                std::fs::write(&out_path, standalone).expect("write quick summary");
                println!("wrote {out_path}");
            }
        }
        return;
    }

    // Full run: the million-entity measurement, plus the quick-scale
    // baseline appended last — bench_gate compares CI's quick run against
    // the last occurrence of each key, which must be the same scale.
    let full_obj = measure_serving(&full_scale(), 7, false);
    let baseline_obj = measure_serving(&quick_scale(), 5, true);
    let entry = format!(
        "{{\n  \"entry\": \"pr10_serving_path\",\n  \"fig15_serving\":\n    {full_obj},\n  \"quick_gate_baseline\": {{\n    \"fig15_serving\":\n    {baseline_obj}\n  }}\n}}"
    );
    println!("{entry}");

    let path = "BENCH_fig4_fig6.json";
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let trimmed = existing.trim();
    let combined = if trimmed.is_empty() {
        format!("[\n{entry}\n]\n")
    } else if let Some(body) = trimmed.strip_prefix('[') {
        let body = body.strip_suffix(']').expect("well-formed JSON array");
        format!("[{},\n{entry}\n]\n", body.trim_end().trim_end_matches(','))
    } else {
        format!("[\n{trimmed},\n{entry}\n]\n")
    };
    std::fs::write(path, combined).expect("write BENCH_fig4_fig6.json");
    println!("wrote {path}");
}
