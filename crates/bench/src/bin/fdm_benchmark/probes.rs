//! Per-layer probes shared by the store workloads: stand-alone timings of
//! the public calls one operation is made of, on the measured store's own
//! data and the workload's own key stream. Calls cheaper than about a
//! microsecond are timed in blocks (see [`BlockTimer`]).

use crate::gen::{self, ServeOp, Zipf, SCAN_LEN};
use crate::harness::{BlockTimer, Outcome, BLOCK};
use crate::hist::median;
use crate::host;
use fdm_core::{TupleF, Value};
use fdm_txn::{BatchPolicy, CommitPolicy, Store, Transaction};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Blocks per probe: 64 × 256 calls.
const BLOCKS: usize = 64;
const KEYS: usize = BLOCKS * BLOCK;
/// Client ids no window stream uses.
const PROBE_LANE: u64 = 30;

/// `KEYS` customer ids from the op stream: Zipf-ranked or uniform.
fn key_stream(zipf: &Zipf, seed: u64, hot: bool) -> Vec<i64> {
    let mix = gen::ServeMix {
        read_hot: if hot { 100 } else { 0 },
        read_cold: if hot { 0 } else { 100 },
        scan: 0,
        commit: 0,
        clients: 1,
    };
    (0..KEYS as u64)
        .map(|i| match gen::serve_op(&mix, zipf, seed, PROBE_LANE, i) {
            ServeOp::ReadHot(c) | ServeOp::ReadCold(c) => c,
            _ => unreachable!("a read-only mix yields reads"),
        })
        .collect()
}

/// The metrics that describe the harness and the machine, not the engine.
pub fn harness(
    out: &mut Outcome,
    timer: &BlockTimer,
    zipf: &Zipf,
    seed: u64,
    generate: impl FnMut(usize),
) {
    out.set("harness.timer_overhead_ns", timer.overhead_ns);
    out.set_n(
        "harness.gen_ns_per_op",
        timer.per_call_ns(BLOCKS, generate),
        KEYS as u64,
    );
    // a std BTreeMap of the same size on the same key stream: the
    // machine-speed yardstick for `storage.pmap_get_ns`
    let calib: BTreeMap<i64, i64> = (1..=zipf.n() as i64).map(|k| (k, k)).collect();
    let keys = key_stream(zipf, seed, true);
    out.set_n(
        "harness.calib_btree_get_ns",
        timer.per_call_ns(BLOCKS, |i| {
            black_box(calib.get(&keys[i % KEYS]));
        }),
        KEYS as u64,
    );
    // what the whole run cost the machine so far
    let (peak_mb, user_s, sys_s) = host::process_usage();
    out.set("process.peak_rss_mb", peak_mb);
    out.set("process.cpu_user_s", user_s);
    out.set("process.cpu_sys_s", sys_s);
}

/// The read path, one public call at a time: `Store::read_point` is
/// `snapshot` → `DatabaseF::relation` → `RelationF::lookup` →
/// `PMap::get`; what is left over is the read front's own cost.
pub fn read_path(
    out: &mut Outcome,
    timer: &BlockTimer,
    store: &Arc<Store>,
    zipf: &Zipf,
    seed: u64,
    with_cold: bool,
) {
    let hot: Vec<Value> = key_stream(zipf, seed, true)
        .into_iter()
        .map(Value::Int)
        .collect();
    let db = store.snapshot();
    let Ok(rel) = db.relation("customers") else {
        return;
    };
    let Some(map) = rel.stored_map() else {
        return;
    };
    let n = KEYS as u64;
    let key = |i: usize| &hot[i % KEYS];
    let scan_hi: Vec<Value> = hot
        .iter()
        .map(|k| match k {
            Value::Int(c) => Value::Int(c + SCAN_LEN - 1),
            other => other.clone(),
        })
        .collect();

    out.set("storage.pmap_height", map.tree_height() as f64);
    let get = timer.per_call_ns(BLOCKS, |i| {
        black_box(map.get(key(i)));
    });
    out.set_n("storage.pmap_get_ns", get, n);
    let resolve = timer.per_call_ns(BLOCKS, |i| {
        black_box(db.relation(black_box("customers")).is_ok());
        black_box(i);
    });
    out.set_n("core.resolve_relation_ns", resolve, n);
    let lookup = timer.per_call_ns(BLOCKS, |i| {
        black_box(rel.lookup(key(i)));
    });
    out.set_n("core.lookup_ns", lookup, n);
    let snapshot = timer.per_call_ns(BLOCKS, |i| {
        black_box(store.snapshot());
        black_box(i);
    });
    out.set_n("txn.snapshot_ns", snapshot, n);
    let read_hot = timer.per_call_ns(BLOCKS, |i| {
        black_box(store.read_point("customers", key(i)).is_ok());
    });
    out.set_n("txn.read_hot_ns", read_hot, n);
    let mut read_point = read_hot;
    if with_cold {
        let cold: Vec<Value> = key_stream(zipf, seed, false)
            .into_iter()
            .map(Value::Int)
            .collect();
        let read_cold = timer.per_call_ns(BLOCKS, |i| {
            black_box(store.read_point("customers", &cold[i % KEYS]).is_ok());
        });
        out.set_n("txn.read_cold_ns", read_cold, n);
        // serve_read's own shares of Zipf and uniform reads
        read_point = (75.0 * read_hot + 20.0 * read_cold) / 95.0;
    }
    out.set_n("txn.read_point_ns", read_point, n);
    out.set_n(
        "txn.read_front_ns",
        read_hot - snapshot - resolve - lookup,
        n,
    );

    // scans: fewer, longer calls — 16 blocks of 16 scans
    let per_row = |ns_per_scan: f64| ns_per_scan / SCAN_LEN as f64;
    let scans = (BLOCKS / 4) * (BLOCK / 16);
    let mut map_scan: Vec<f64> = Vec::with_capacity(scans);
    let mut rel_scan: Vec<f64> = Vec::with_capacity(scans);
    for i in 0..scans {
        let (lo, hi) = (key(i), &scan_hi[i % KEYS]);
        let t0 = Instant::now();
        black_box(map.range(Some(lo), Some(hi)).count());
        map_scan.push(t0.elapsed().as_nanos() as f64 - timer.overhead_ns);
        let t0 = Instant::now();
        black_box(rel.range(Some(lo), Some(hi)).len());
        rel_scan.push(t0.elapsed().as_nanos() as f64 - timer.overhead_ns);
    }
    out.set_n(
        "storage.pmap_range_ns_per_row",
        per_row(median(&mut map_scan)),
        scans as u64,
    );
    out.set_n(
        "core.range_ns_per_row",
        per_row(median(&mut rel_scan)),
        scans as u64,
    );
}

fn stage(store: &Arc<Store>, cid: i64) -> Transaction {
    let mut txn = store.begin();
    let staged = txn.modify_attr("customers", &Value::Int(cid), "credit", |v| {
        v.add(&Value::Int(1))
    });
    black_box(staged.is_ok());
    txn
}

/// The write path on an in-memory twin of the measured store: a commit is
/// `begin` → `modify_attr` (a `with_attr` and a staged upsert) →
/// `commit_with` (validate, path-copy `PMap::insert`, install, log).
/// `with_batch` adds the calls only `serve_write_durable` makes.
pub fn write_path(
    out: &mut Outcome,
    timer: &BlockTimer,
    twin: &Arc<Store>,
    zipf: &Zipf,
    seed: u64,
    with_batch: bool,
) {
    let cids = key_stream(zipf, seed, true);
    let cid = |i: usize| cids[i % KEYS];
    let n = KEYS as u64;
    let db = twin.snapshot();
    let Ok(rel) = db.relation("customers") else {
        return;
    };
    let Some(map) = rel.stored_map() else {
        return;
    };
    let rows: Vec<(Value, Arc<TupleF>)> = cids
        .iter()
        .filter_map(|&c| {
            let key = Value::Int(c);
            map.get(&key).cloned().map(|t| (key, t))
        })
        .collect();
    if rows.len() != KEYS {
        return;
    }
    let insert = timer.per_call_ns(BLOCKS, |i| {
        let (k, t) = &rows[i % KEYS];
        black_box(map.insert(k.clone(), t.clone()));
    });
    out.set_n("storage.pmap_insert_ns", insert, n);
    let with_attr = timer.per_call_ns(BLOCKS, |i| {
        black_box(rows[i % KEYS].1.with_attr("credit", i as i64));
    });
    out.set_n("core.with_attr_ns", with_attr, n);

    let begin = timer.per_call_ns(BLOCKS, |i| {
        black_box(twin.begin());
        black_box(i);
    });
    out.set_n("txn.begin_ns", begin, n);
    let begin_stage = timer.per_call_ns(BLOCKS, |i| {
        black_box(stage(twin, cid(i)));
    });
    out.set_n("txn.stage_ns", begin_stage - begin, n);
    let policy = CommitPolicy::default();
    let begin_stage_commit = timer.per_call_ns(BLOCKS, |i| {
        black_box(stage(twin, cid(i)).commit_with(&policy).is_ok());
    });
    out.set_n("txn.commit_ns", begin_stage_commit - begin_stage, n);

    if !with_batch {
        return;
    }
    // 16 distinct keys per group, so the group is what the workload's
    // coalesced flush submits
    let batch = BatchPolicy::default();
    let mut per_txn_us: Vec<f64> = (0..BLOCKS)
        .map(|round| {
            let txns: Vec<Transaction> = (0..16)
                .map(|k| stage(twin, ((round * 16 + k) % zipf.n()) as i64 + 1))
                .collect();
            let t0 = Instant::now();
            black_box(twin.commit_batch(txns, &batch).len());
            t0.elapsed().as_nanos() as f64 / 1e3 / 16.0
        })
        .collect();
    out.set_n(
        "txn.batch_us_per_txn",
        median(&mut per_txn_us),
        BLOCKS as u64,
    );
    // the commits above left far more than 64 versions in the history
    let head = twin.version();
    let as_of = timer.per_call_ns(BLOCKS, |i| {
        black_box(twin.as_of(head - (i % 64) as u64).is_ok());
    });
    out.set_n("txn.as_of_ns", as_of, n);
}
