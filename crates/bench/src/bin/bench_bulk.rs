//! Before/after measurements of the engine's fast paths, recorded as the
//! `BENCH_fig4_fig6.json` trajectory (one entry per PR that moved them):
//!
//! * **PR 1 (bulk construction)** — the pre-builder idiom preserved
//!   verbatim below: output assembled with per-tuple persistent `insert`
//!   (O(log n) time and `Arc` allocation each), `format!`-per-tuple
//!   attribute qualification, and the nested row × entry relationship
//!   scan; vs the shipped `RelationBuilder` operators.
//! * **PR 2 (parallel operators + merge setops)** — the PR 1 sequential
//!   operators vs the thread-chunked path (`THREADS` env toggles it), and
//!   the PR 1 per-element `by_data`/`BTreeMap` DB setops (preserved
//!   verbatim below) vs the O(n) sorted-merge setops. Measured at the 20k
//!   scale *and* at 1k, where the sequential cutoff must keep the
//!   parallel path disabled (no small-input regression).
//! * **PR 3 (fingerprint cache + parallel differential path)** — the PR 2
//!   merge `minus`/`intersect` (data keys recomputed per shared key;
//!   preserved verbatim below via `TupleF::compute_data_key`) vs the
//!   shipped setops on **cached** per-tuple fingerprints, and `deep_copy`
//!   sequential vs thread-chunked. The cached series reports the
//!   steady-state cost — caches warmed by the warm-up run — which is the
//!   differential-database usage pattern (§4.4: the same base DB diffed
//!   again and again).
//! * **PR 4 (cost-modeled join planning + hash grouping)** — the PR 3
//!   `BTreeMap` grouping (full-`Value` ordered compares per tuple;
//!   preserved verbatim below) vs the shipped fingerprint-hash bucketing,
//!   and the schema join on a fan-out-skewed multi-relationship database
//!   under the old raw-entry-count ordering (`FDM_JOIN_COST=entries`) vs
//!   the statistics-driven ordering (`fdm_core::stats`).
//! * **PR 5 (plan-level join reordering)** — a lazy `Query` with two
//!   chained joins on a fan-out-skewed relation database, executed in
//!   declared order vs the order `Query::optimize_for` picks from the
//!   distinct-count sketches (canonical row ids make the two plans
//!   produce identical keyed data; the sanity block asserts it).
//! * **PR 6 (hardened concurrent commit path)** — `fig11_txn_commit`:
//!   Zipf-contended writer threads committing read-modify-writes through
//!   `Store::run_with` (closure re-derivation on conflict, paced by the
//!   seeded backoff). Reported as absolute commits/second plus the
//!   mean attempts per commit. **Recorded, never gated** — it is an
//!   absolute machine-dependent number, unlike the before/after ratios
//!   above, so `bench_gate` ignores it by design.
//! * **PR 7 (durability subsystem)** — `fig12_recovery`: commit
//!   throughput with the WAL off / group-commit (`EveryN(32)`) /
//!   fsync-per-commit, and recovery time (`Store::open`) as a function
//!   of WAL length. Both series are medium-dependent (fsync latency,
//!   page-cache state), so like `fig11` they are **recorded, never
//!   gated** — `bench_gate` prints them as recorded-only.
//! * **PR 8 (rule-engine optimizer)** — `fig13_rule_optimizer`: a
//!   three-join chain with a constant-foldable filter conjunct where
//!   only *whole-chain* reordering helps, evaluated as declared vs
//!   after the legacy PR 5 pass (pushdown + adjacent bubble, replayed
//!   as two rules under `ReorderStrategy::Adjacent`) vs the shipped
//!   default rule set (constant folding, pushdown, pruning, greedy
//!   n-way enumeration). `rule_optimizer_speedup` (declared /
//!   rule-engine) is recorded now and arms in `bench_gate` once a
//!   second trajectory entry carries it, like `plan_reorder_speedup`
//!   before it.
//! * **PR 9 (incremental view maintenance)** — `fig14_view_refresh`: a
//!   maintained filter→group view over the customers relation, refreshed
//!   by delta propagation vs from-scratch recompute, across delta batch
//!   sizes (1, 16, 128 changed rows). `view_refresh_speedup` is the
//!   single-row-delta ratio — the maintained path's headline case — and
//!   follows the record-then-arm arc in `bench_gate`.
//!
//! Medians are computed criterion-style (N timed samples, median reported).
//!
//! ```text
//! cargo run -p fdm-bench --bin bench_bulk --release            # full scales
//! cargo run -p fdm-bench --bin bench_bulk --release -- --quick # CI smoke:
//! #   writes the flat bench_quick.json summary consumed by bench_gate
//! #   (override the path with --out <file>)
//! ```

use fdm_bench::standard_config;
use fdm_core::{
    DatabaseF, FdmError, FnValue, Name, RelationF, RelationshipF, Result, TupleF, Value,
};
use fdm_storage::PMap;
use fdm_workload::{generate, to_fdm};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

// ───────────────────────── legacy (before) path ─────────────────────────

/// The old filter: per-tuple persistent inserts into a fresh relation.
fn legacy_filter_fn(rel: &RelationF, pred: impl Fn(&TupleF) -> Result<bool>) -> Result<RelationF> {
    let key_attrs: Vec<&str> = rel.key_attrs().iter().map(|n| n.as_ref()).collect();
    let mut out = RelationF::new(rel.name(), &key_attrs);
    for (key, tuple) in rel.tuples()? {
        if pred(&tuple)? {
            out = out.insert_arc(key, tuple)?;
        }
    }
    Ok(out)
}

#[derive(Clone)]
struct JoinRow {
    bound: BTreeMap<Name, Value>,
    attrs: Vec<(Name, Value)>,
}

/// The old qualification: one `format!` per attribute per tuple.
fn legacy_qualify(tuple: &TupleF, rel_name: &str, out: &mut Vec<(Name, Value)>) -> Result<()> {
    for (attr, v) in tuple.materialize()? {
        out.push((Name::from(format!("{rel_name}.{attr}").as_str()), v));
    }
    Ok(())
}

/// The old schema join: nested rows × entries scan with a compatibility
/// check per pair, outputs built insert-by-insert.
fn legacy_join(db: &DatabaseF) -> Result<RelationF> {
    let relationships: Vec<(Name, Arc<RelationshipF>)> = db
        .relationships()
        .map(|(n, r)| (n.clone(), r.clone()))
        .collect();
    if relationships.is_empty() {
        return Err(FdmError::Other("legacy_join: no relationships".into()));
    }
    let mut rows: Vec<JoinRow> = vec![JoinRow {
        bound: BTreeMap::new(),
        attrs: Vec::new(),
    }];
    for (rname, rsf) in relationships {
        let mut parts: Vec<(Name, Arc<RelationF>)> = Vec::new();
        for p in rsf.participants() {
            parts.push((p.function.clone(), db.relation(&p.function)?));
        }
        let mut next = Vec::new();
        for row in &rows {
            for (args, rattrs) in rsf.iter() {
                let mut compatible = true;
                for ((pname, _), arg) in parts.iter().zip(&args) {
                    if let Some(bound_key) = row.bound.get(pname) {
                        if bound_key != arg {
                            compatible = false;
                            break;
                        }
                    }
                }
                if !compatible {
                    continue;
                }
                let mut new_row = row.clone();
                let mut ok = true;
                for ((pname, prel), arg) in parts.iter().zip(&args) {
                    if new_row.bound.contains_key(pname) {
                        continue;
                    }
                    match prel.lookup(arg) {
                        Some(tuple) => {
                            new_row.bound.insert(pname.clone(), arg.clone());
                            if let Some(p) =
                                rsf.participants().iter().find(|p| &p.function == pname)
                            {
                                new_row.attrs.push((
                                    Name::from(format!("{pname}.{}", p.key).as_str()),
                                    arg.clone(),
                                ));
                            }
                            legacy_qualify(&tuple, pname, &mut new_row.attrs)?;
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                for (attr, v) in rattrs.materialize()? {
                    new_row
                        .attrs
                        .push((Name::from(format!("{rname}.{attr}").as_str()), v));
                }
                next.push(new_row);
            }
        }
        rows = next;
    }
    let mut out = RelationF::new("join_result", &["row"]);
    for (i, row) in rows.into_iter().enumerate() {
        let mut b = TupleF::builder(format!("j{i}"));
        for (n, v) in row.attrs {
            b = b.attr(n.as_ref(), v);
        }
        out = out.insert(Value::Int(i as i64), b.build())?;
    }
    Ok(out)
}

// ─────────────────── legacy (PR 1) DB setops path ───────────────────
//
// The per-element idiom the merge setops replaced: index every relation's
// mappings into a `BTreeMap` keyed by primary key (computing every
// tuple's data key up front), merge/filter per element with point
// lookups, then rebuild the output relation entry by entry.

fn legacy_by_data(rel: &RelationF) -> Result<BTreeMap<Value, (Value, Arc<TupleF>)>> {
    let mut out = BTreeMap::new();
    for (key, tuple) in rel.tuples()? {
        // compute_data_key: the PR 1 idiom predates the fingerprint
        // cache, so the baseline must not benefit from it
        let dk = tuple.compute_data_key()?;
        out.insert(key, (dk, tuple));
    }
    Ok(out)
}

fn legacy_rebuild(
    name: &str,
    key_attrs: &[&str],
    entries: impl IntoIterator<Item = (Value, Arc<TupleF>)>,
) -> Result<RelationF> {
    let mut out = fdm_core::RelationBuilder::new(name, key_attrs);
    for (key, tuple) in entries {
        out.push_arc(key, tuple);
    }
    out.build()
}

fn key_attr_strs(rel: &RelationF) -> Vec<&str> {
    rel.key_attrs().iter().map(|n| n.as_ref()).collect()
}

fn legacy_union(a: &DatabaseF, b: &DatabaseF) -> Result<DatabaseF> {
    let mut out = DatabaseF::new(format!("({} union {})", a.name(), b.name()));
    let mut names: Vec<Name> = Vec::new();
    for (n, e) in a.iter() {
        if matches!(e, FnValue::Relation(_)) {
            names.push(n.clone());
        }
    }
    for (n, e) in b.iter() {
        if matches!(e, FnValue::Relation(_)) && !names.contains(n) {
            names.push(n.clone());
        }
    }
    for name in names {
        let da = match a.relation(&name) {
            Ok(r) => legacy_by_data(&r)?,
            Err(_) => BTreeMap::new(),
        };
        let db_ = match b.relation(&name) {
            Ok(r) => legacy_by_data(&r)?,
            Err(_) => BTreeMap::new(),
        };
        let template = a
            .relation(&name)
            .or_else(|_| b.relation(&name))
            .expect("name came from one of the inputs");
        let mut merged: BTreeMap<Value, (Value, Arc<TupleF>)> = da.clone();
        for (k, v) in &db_ {
            merged.entry(k.clone()).or_insert_with(|| v.clone());
        }
        out = out.with_entry(
            name.as_ref(),
            FnValue::from(legacy_rebuild(
                template.name(),
                &key_attr_strs(&template),
                merged.into_iter().map(|(k, (_, t))| (k, t)),
            )?),
        );
    }
    Ok(out)
}

fn legacy_minus(a: &DatabaseF, b: &DatabaseF) -> Result<DatabaseF> {
    let mut out = DatabaseF::new(format!("({} − {})", a.name(), b.name()));
    for (name, entry) in a.iter() {
        let FnValue::Relation(ra) = entry else {
            continue;
        };
        let da = legacy_by_data(ra)?;
        let db_ = match b.relation(name) {
            Ok(rb) => legacy_by_data(&rb)?,
            Err(_) => BTreeMap::new(),
        };
        let keep: Vec<(Value, Arc<TupleF>)> = da
            .iter()
            .filter(|(key, (dk, _))| db_.get(*key).is_none_or(|(dk2, _)| dk2 != dk))
            .map(|(key, (_, t))| (key.clone(), t.clone()))
            .collect();
        out = out.with_entry(
            name.as_ref(),
            FnValue::from(legacy_rebuild(ra.name(), &key_attr_strs(ra), keep)?),
        );
    }
    Ok(out)
}

// ─────────────────── legacy (PR 2) merge setops path ───────────────────
//
// The PR 2 implementation preserved verbatim: O(n+m) sorted merges, but
// the data key of every shared-key tuple recomputed from scratch on every
// call (materialize + sort + allocate) — exactly what the per-tuple
// fingerprint cache removed.

fn pr2_key_map(rel: &RelationF) -> Result<PMap<Value, Arc<TupleF>>> {
    if let Some(m) = rel.stored_map() {
        return Ok(m.clone());
    }
    let mut entries = rel.tuples()?;
    if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.reverse();
        entries.dedup_by(|a, b| a.0 == b.0);
        entries.reverse();
    }
    Ok(PMap::from_sorted_vec(entries))
}

fn pr2_data_equal(ta: &TupleF, tb: &TupleF, err: &mut Option<FdmError>) -> bool {
    if err.is_some() {
        return false;
    }
    match (ta.compute_data_key(), tb.compute_data_key()) {
        (Ok(da), Ok(db_)) => da == db_,
        (Err(e), _) | (_, Err(e)) => {
            *err = Some(e);
            false
        }
    }
}

fn pr2_minus(a: &DatabaseF, b: &DatabaseF) -> Result<DatabaseF> {
    let mut out = DatabaseF::new(format!("({} − {})", a.name(), b.name()));
    for (name, entry) in a.iter() {
        let FnValue::Relation(ra) = entry else {
            continue;
        };
        let ma = pr2_key_map(ra)?;
        let mb = match b.relation(name) {
            Ok(rb) => pr2_key_map(&rb)?,
            Err(_) => PMap::new(),
        };
        let mut err = None;
        let merged = ma.merge_difference_with(&mb, |_, ta, tb| {
            (!pr2_data_equal(ta, tb, &mut err) && err.is_none()).then(|| ta.clone())
        });
        if let Some(e) = err {
            return Err(e);
        }
        let key_attrs = key_attr_strs(ra);
        out = out.with_entry(
            name.as_ref(),
            FnValue::from(RelationF::from_stored_map(ra.name(), &key_attrs, merged)),
        );
    }
    Ok(out)
}

fn pr2_intersect(a: &DatabaseF, b: &DatabaseF) -> Result<DatabaseF> {
    let mut out = DatabaseF::new(format!("({} ∩ {})", a.name(), b.name()));
    for (name, entry) in a.iter() {
        let FnValue::Relation(ra) = entry else {
            continue;
        };
        let Ok(rb) = b.relation(name) else { continue };
        let ma = pr2_key_map(ra)?;
        let mb = pr2_key_map(&rb)?;
        let mut err = None;
        let merged = ma.merge_intersection_with(&mb, |_, ta, tb| {
            pr2_data_equal(ta, tb, &mut err).then(|| ta.clone())
        });
        if let Some(e) = err {
            return Err(e);
        }
        let key_attrs = key_attr_strs(ra);
        out = out.with_entry(
            name.as_ref(),
            FnValue::from(RelationF::from_stored_map(ra.name(), &key_attrs, merged)),
        );
    }
    Ok(out)
}

// ─────────────────── legacy (PR 3) BTreeMap grouping ───────────────────

/// The old grouping: a `BTreeMap` bucket per distinct key, paying
/// O(log g) full-`Value` ordered comparisons per tuple (preserved
/// verbatim; the shipped `group_fn` buckets by fingerprint hash and
/// compares full values only on hash collision).
fn legacy_group_fn(rel: &RelationF, key: impl Fn(&TupleF) -> Result<Value>) -> Result<RelationF> {
    let mut buckets: BTreeMap<Value, Vec<Arc<TupleF>>> = BTreeMap::new();
    for (_, tuple) in rel.tuples()? {
        let k = key(&tuple)?;
        buckets.entry(k).or_default().push(tuple);
    }
    Ok(RelationF::from_groups(
        format!("{}_groups", rel.name()),
        &["key"],
        buckets,
    ))
}

// ──────────────── PR 4 join-ordering measurement input ────────────────

/// A database where raw-entry-count relationship ordering and the
/// fan-out-aware cost model disagree (the `join_planning` test scenario,
/// scaled): after the seed relationship `r1(a, b)` binds, `r2(b, c)` has
/// `n` entries at fan-out 1 while `r3(b, d)` has `n/2` entries piled onto
/// few `b` keys at fan-out 10. Entry count binds `r3` first and multiplies
/// the working rows tenfold before the expensive extension; the cost model
/// binds `r2` first.
fn join_order_db(n: usize) -> DatabaseF {
    use fdm_core::{Domain, Participant, RelationBuilder, RelationshipBuilder, SharedDomain};
    let n = n.max(100) as i64;
    let seeds = n / 20;
    let dom = |name: &str| SharedDomain::new(name, Domain::Typed(fdm_core::ValueType::Int));
    let (aid, bid, cid, did) = (dom("aid"), dom("bid"), dom("cid"), dom("did"));
    let int_rel = |name: &str, key: &str, rows: i64| {
        let mut b = RelationBuilder::new(name, &[key]);
        for i in 1..=rows {
            b.push(
                Value::Int(i),
                TupleF::builder(format!("{name}{i}"))
                    .attr("tag", format!("{name}_{i}"))
                    .build(),
            );
        }
        b.build().expect("ascending keys")
    };
    let mut r1 = RelationshipBuilder::new(
        "r1",
        vec![
            Participant::new("a", "aid", aid.clone()),
            Participant::new("b", "bid", bid.clone()),
        ],
    );
    for i in 1..=seeds {
        r1.push_link(&[Value::Int(i % 100 + 1), Value::Int(i)])
            .expect("in domain");
    }
    let mut r2 = RelationshipBuilder::new(
        "r2",
        vec![
            Participant::new("b", "bid", bid.clone()),
            Participant::new("c", "cid", cid.clone()),
        ],
    );
    for i in 1..=n {
        r2.push_link(&[Value::Int(i), Value::Int(i)])
            .expect("in domain");
    }
    let mut r3 = RelationshipBuilder::new(
        "r3",
        vec![
            Participant::new("b", "bid", bid.clone()),
            Participant::new("d", "did", did.clone()),
        ],
    );
    for b in 1..=seeds {
        for d in 1..=10 {
            r3.push_link(&[Value::Int(b), Value::Int(d)])
                .expect("in domain");
        }
    }
    DatabaseF::new("fanout")
        .with_domain(aid)
        .with_domain(bid)
        .with_domain(cid)
        .with_domain(did)
        .with_relation(int_rel("a", "aid", 100))
        .with_relation(int_rel("b", "bid", n))
        .with_relation(int_rel("c", "cid", n))
        .with_relation(int_rel("d", "did", 10))
        .with_relationship(r1.build().expect("unique"))
        .with_relationship(r2.build().expect("unique"))
        .with_relationship(r3.build().expect("unique"))
}

/// A relation database where the declared plan-level join order is the
/// expensive one (the `plan_reordering` test scenario, scaled): `base`
/// rows fan out 10× into `wide.k` (a non-key attribute whose distinct
/// count only the sketch can see) but exactly 1× into `narrow.k2`. The
/// declared query binds `wide` first and multiplies the working rows
/// tenfold before the cheap extension; `Query::optimize_for` swaps the
/// two joins.
fn plan_reorder_db(n: usize) -> fdm_core::DatabaseF {
    use fdm_core::RelationBuilder;
    let seeds = (n / 10).max(50) as i64;
    let mut base = RelationBuilder::new("base", &["id"]);
    for i in 1..=seeds {
        base.push(
            Value::Int(i),
            TupleF::builder("b").attr("wk", i).attr("nk", i).build(),
        );
    }
    let mut wide = RelationBuilder::new("wide", &["wid"]);
    let mut wid = 0i64;
    for k in 1..=seeds {
        for _ in 0..10 {
            wid += 1;
            wide.push(
                Value::Int(wid),
                TupleF::builder("w").attr("k", k).attr("wv", wid).build(),
            );
        }
    }
    let mut narrow = RelationBuilder::new("narrow", &["nid"]);
    for k in 1..=seeds {
        narrow.push(
            Value::Int(k),
            TupleF::builder("nr")
                .attr("k2", k)
                .attr("nv", k * 7)
                .build(),
        );
    }
    DatabaseF::new("plan_reorder")
        .with_relation(base.build().expect("ascending keys"))
        .with_relation(wide.build().expect("ascending keys"))
        .with_relation(narrow.build().expect("ascending keys"))
}

/// Runs `f` with `FDM_JOIN_COST` pinned (the join planner reads it per
/// call), restoring the previous value afterwards.
fn with_join_cost<T>(mode: Option<&str>, f: impl FnOnce() -> T) -> T {
    let saved = std::env::var("FDM_JOIN_COST").ok();
    match mode {
        Some(v) => std::env::set_var("FDM_JOIN_COST", v),
        None => std::env::remove_var("FDM_JOIN_COST"),
    }
    let out = f();
    match saved {
        Some(v) => std::env::set_var("FDM_JOIN_COST", v),
        None => std::env::remove_var("FDM_JOIN_COST"),
    }
    out
}

// ───────────────────────── measurement harness ─────────────────────────

/// Criterion-style median: `samples` timed runs, median per-run nanos.
fn median_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    // one warm-up run outside the timings
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

/// Runs `f` with the `THREADS` override set (the parallel layer reads it
/// per call), restoring the previous value afterwards.
fn with_threads<T>(n: &str, f: impl FnOnce() -> T) -> T {
    let saved = std::env::var("THREADS").ok();
    std::env::set_var("THREADS", n);
    let out = f();
    match saved {
        Some(v) => std::env::set_var("THREADS", v),
        None => std::env::remove_var("THREADS"),
    }
    out
}

/// Like [`with_threads`], additionally pinning `FDM_PAR_CUTOFF` so a
/// series exercises the chunked path even at the CI smoke scale (whose
/// relations sit below the production cutoff) — quick-gate ratios must
/// measure the same code path the committed full-scale numbers did.
fn with_threads_cutoff<T>(n: &str, cutoff: &str, f: impl FnOnce() -> T) -> T {
    let saved = std::env::var("FDM_PAR_CUTOFF").ok();
    std::env::set_var("FDM_PAR_CUTOFF", cutoff);
    let out = with_threads(n, f);
    match saved {
        Some(v) => std::env::set_var("FDM_PAR_CUTOFF", v),
        None => std::env::remove_var("FDM_PAR_CUTOFF"),
    }
    out
}

/// The speedup ratios the CI regression gate (`bench_gate`) tracks, plus
/// the reported-but-ungated join-ordering ratio.
struct GateMetrics {
    union_speedup: f64,
    minus_speedup: f64,
    intersect_speedup: f64,
    deep_copy_speedup: f64,
    group_speedup: f64,
    join_order_speedup: f64,
    plan_reorder_speedup: f64,
    rule_optimizer_speedup: f64,
    view_refresh_speedup: f64,
    /// Absolute commits/second — recorded in the summary for trend
    /// visibility, never ratio-gated (machine-dependent).
    txn_commit_throughput: f64,
}

/// One scale's measurements, as a JSON object string plus the gate ratios.
fn measure_scale(orders: usize, samples: usize, par_threads: &str) -> (String, GateMetrics) {
    let db = to_fdm(&generate(&standard_config(orders)));
    let customers = db.relation("customers").unwrap();
    println!(
        "bench_bulk: {} orders, {} customers, {} samples per series",
        orders,
        customers.len(),
        samples
    );

    // PR 1 comparison (kept so the trajectory tracks it over time): the
    // per-tuple-insert idiom vs the sequential builder path.
    let pred = |t: &TupleF| Ok(t.get("age")?.as_int("age")? > 42);
    let before_filter = with_threads("1", || {
        median_ns(samples, || {
            black_box(legacy_filter_fn(&customers, pred).unwrap());
        })
    });
    let seq_filter = with_threads("1", || {
        median_ns(samples, || {
            black_box(fdm_fql::filter_fn(&customers, pred).unwrap());
        })
    });
    let par_filter = with_threads(par_threads, || {
        median_ns(samples, || {
            black_box(fdm_fql::filter_fn(&customers, pred).unwrap());
        })
    });

    let before_join = with_threads("1", || {
        median_ns(samples, || {
            black_box(legacy_join(&db).unwrap());
        })
    });
    let seq_join = with_threads("1", || {
        median_ns(samples, || {
            black_box(fdm_fql::join(&db).unwrap());
        })
    });
    let par_join = with_threads(par_threads, || {
        median_ns(samples, || {
            black_box(fdm_fql::join(&db).unwrap());
        })
    });

    // PR 2 merge setops: a changed copy (50 extra customers, like the
    // fig9 criterion bench), then DB-level union and difference through
    // the PR 1 per-element path vs the sorted-merge path.
    let changed = {
        let mut changed = fdm_fql::deep_copy(&db).unwrap();
        for i in 0..50i64 {
            changed = fdm_fql::db_upsert(
                &changed,
                "customers",
                Value::Int(1_000_000 + i),
                TupleF::builder("c")
                    .attr("name", format!("new{i}"))
                    .attr("age", 20 + i)
                    .attr("state", "NV")
                    .build(),
            )
            .unwrap();
        }
        changed
    };
    let union_insert = median_ns(samples, || {
        black_box(legacy_union(&db, &changed).unwrap());
    });
    let union_merge = median_ns(samples, || {
        black_box(fdm_fql::union(&db, &changed).unwrap());
    });
    let minus_insert = median_ns(samples, || {
        black_box(legacy_minus(&db, &changed).unwrap());
    });

    // PR 3: the PR 2 merge setops (data keys recomputed per shared key,
    // every call) vs the shipped cached-fingerprint setops. The shipped
    // series runs warm — the warm-up inside median_ns fills every cache —
    // reporting the steady-state differential cost.
    let minus_uncached = median_ns(samples, || {
        black_box(pr2_minus(&db, &changed).unwrap());
    });
    let minus_cached = median_ns(samples, || {
        black_box(fdm_fql::minus(&db, &changed).unwrap());
    });
    let intersect_uncached = median_ns(samples, || {
        black_box(pr2_intersect(&db, &changed).unwrap());
    });
    let intersect_cached = median_ns(samples, || {
        black_box(fdm_fql::intersect(&db, &changed).unwrap());
    });

    // PR 4: BTreeMap bucketing vs fingerprint-hash bucketing, THREADS=1 on
    // both sides so the comparison isolates the bucketing structure (the
    // parallel layer only chunks key evaluation, identically for both).
    // The workload is the canonical grouping shape — many tuples per
    // group, string keys: the flattened order entries grouped by date
    // (~336 distinct `"2026-mm-dd"` strings). Placing a tuple costs the
    // BTreeMap O(log g) prefix-heavy string compares; the hash path pays
    // one FxHash plus a single equality against its (singleton) hash
    // bucket. (With all-distinct keys the two converge: the hash path's
    // final deterministic key sort re-pays what the tree paid up front.)
    let orders_flat = db.relationship("order").unwrap().to_relation();
    let group_key = |t: &TupleF| t.get("date");
    let group_btree = with_threads("1", || {
        median_ns(samples, || {
            black_box(legacy_group_fn(&orders_flat, group_key).unwrap());
        })
    });
    let group_hash = with_threads("1", || {
        median_ns(samples, || {
            black_box(fdm_fql::group_fn(&orders_flat, group_key).unwrap());
        })
    });

    // PR 4: schema join under raw-entry-count relationship ordering vs the
    // fan-out-aware cost model, on the multi-relationship database where
    // the two plans differ.
    let fan_db = join_order_db(orders);
    let join_by_entries = with_threads("1", || {
        with_join_cost(Some("entries"), || {
            median_ns(samples, || {
                black_box(fdm_fql::join(&fan_db).unwrap());
            })
        })
    });
    let join_by_stats = with_threads("1", || {
        with_join_cost(None, || {
            median_ns(samples, || {
                black_box(fdm_fql::join(&fan_db).unwrap());
            })
        })
    });

    // PR 5: lazy-plan joins in declared order vs the sketch-driven order
    // `optimize_for` picks (both plans computed once, outside the
    // timings; canonical row ids make the outputs identical keyed data).
    let reorder_db = plan_reorder_db(orders);
    let plan_q = fdm_fql::plan::Query::scan("base")
        .join("wide", "wk", "k")
        .join("narrow", "nk", "k2");
    let plan_reordered = plan_q.clone().optimize_for(&reorder_db);
    let reorder_declared = with_threads("1", || {
        median_ns(samples, || {
            black_box(plan_q.eval(&reorder_db).unwrap());
        })
    });
    let reorder_optimized = with_threads("1", || {
        median_ns(samples, || {
            black_box(plan_reordered.eval(&reorder_db).unwrap());
        })
    });

    // PR 8: the rule-engine optimizer on the three-join chain fixture,
    // where only whole-chain reordering helps: the declared plan as-is,
    // after the legacy PR 5 pass (pushdown + adjacent bubble — the (a, b)
    // pair is pinned dependent and (b, c) is an exact cost tie, so the
    // bubble cannot escape the local optimum), and after the shipped
    // default rule set (constant folding strips the tautological
    // conjunct, pushdown sinks the filter, the greedy enumerator binds
    // the fan-out-1 `c` join first). Strategies are pinned through
    // OptimizerConfig so the process environment cannot skew a series;
    // plans are computed once, outside the timings.
    let chain_rows = (orders / 10).max(50);
    let rule_db = fdm_fql::testutil::chain_db_scaled(chain_rows, 8);
    let rule_pred = format!("2 > 1 and ck <= {}", chain_rows as i64 / 2);
    let rule_q = fdm_fql::plan::Query::scan("base")
        .join("a", "ak", "k")
        .join("b", "a.av", "k2")
        .join("c", "ck", "k3")
        .filter(&rule_pred, fdm_expr::Params::new());
    let (rule_legacy_plan, rule_engine_plan) = {
        use fdm_fql::optimizer::{
            AdjacentJoinReorder, JoinCostModel, Optimizer, OptimizerConfig, PredicatePushdown,
            ReorderStrategy,
        };
        let pinned = OptimizerConfig::new().with_join_cost(JoinCostModel::Stats);
        let legacy = Optimizer::new()
            .with_rule(Box::new(PredicatePushdown))
            .with_rule(Box::new(AdjacentJoinReorder))
            .with_config(pinned.with_reorder(ReorderStrategy::Adjacent))
            .optimize(rule_q.clone(), &rule_db);
        let engine = Optimizer::default()
            .with_config(pinned.with_reorder(ReorderStrategy::Greedy))
            .optimize(rule_q.clone(), &rule_db);
        (legacy, engine)
    };
    let rule_declared = with_threads("1", || {
        median_ns(samples, || {
            black_box(rule_q.eval(&rule_db).unwrap());
        })
    });
    let rule_legacy = with_threads("1", || {
        median_ns(samples, || {
            black_box(rule_legacy_plan.eval(&rule_db).unwrap());
        })
    });
    let rule_engine = with_threads("1", || {
        median_ns(samples, || {
            black_box(rule_engine_plan.eval(&rule_db).unwrap());
        })
    });

    // PR 6: concurrent commit throughput over the retail store — 4 Zipf-
    // contended writer threads of read-modify-write transactions through
    // Store::run_with. One timed run (not median_ns: the store mutates, so
    // every run starts from a fresh store and the op count amortizes the
    // noise). Absolute number: recorded, never gated.
    let txn_cfg = fdm_workload::MixedConfig {
        threads: 4,
        ops_per_thread: 250,
        seed: 0xFD17,
        skew: 0.8,
    };
    let txn_store = fdm_workload::retail_store(&standard_config(orders));
    let txn_start = Instant::now();
    let txn_records = fdm_workload::run_writers(&txn_store, &txn_cfg);
    let txn_elapsed = txn_start.elapsed();
    let txn_commits = txn_records.len();
    let txn_throughput = txn_commits as f64 / txn_elapsed.as_secs_f64();
    let txn_mean_attempts =
        txn_records.iter().map(|r| r.attempts).sum::<usize>() as f64 / txn_commits.max(1) as f64;

    // PR 9: incremental view maintenance vs recompute. A maintained
    // filter→group view over the customers relation; per delta batch
    // size, one refresh cycle is "advance to the changed database and
    // back" — the incremental side applies the two row deltas through
    // the view's operator tree, the recompute side evaluates the same
    // plan from scratch twice. The batch updates bump ages across the
    // filter boundary so rows genuinely enter and leave the view.
    let view_q = fdm_fql::plan::Query::scan("customers")
        .filter("age > 42", fdm_expr::Params::new())
        .group_agg(
            &["state"],
            &[
                ("n", fdm_fql::AggSpec::Count),
                ("sum_age", fdm_fql::AggSpec::Sum("age".into())),
            ],
        );
    let n_customers = customers.len();
    let mut view_series = Vec::new();
    let mut view_refresh_speedup = f64::NAN;
    for batch in [1usize, 16, 128] {
        let mut db2 = db.clone();
        let stride = (n_customers / batch).max(1);
        for i in 0..batch {
            let key = Value::Int(((i * stride) % n_customers) as i64 + 1);
            let t = customers.lookup(&key).expect("generated cids are dense");
            let age = t.get("age").unwrap().as_int("age").unwrap();
            // 43 - age flips rows across the `age > 42` boundary
            db2 = fdm_fql::db_upsert(&db2, "customers", key, t.with_attr("age", 85 - age)).unwrap();
        }
        let fwd = fdm_core::DbDelta::between(&db, &db2).unwrap();
        let back = fdm_core::DbDelta::between(&db2, &db).unwrap();
        let mut view = fdm_fql::MaintainedView::new("fig14", view_q.clone(), &db).unwrap();
        let view_incremental = with_threads("1", || {
            median_ns(samples, || {
                black_box(view.apply(&db2, &fwd).unwrap());
                black_box(view.apply(&db, &back).unwrap());
            })
        });
        let view_recompute = with_threads("1", || {
            median_ns(samples, || {
                black_box(view_q.eval(&db2).unwrap());
                black_box(view_q.eval(&db).unwrap());
            })
        });
        // the maintained result must equal the recompute before the
        // ratio is published (ends on `db` after the backward delta)
        view.apply(&db2, &fwd).unwrap();
        let maintained = view.relation();
        let fresh = view_q.eval(&db2).unwrap();
        assert_eq!(
            maintained.stored_keys(),
            fresh.stored_keys(),
            "fig14: maintained view diverges in keys at batch {batch}"
        );
        view.apply(&db, &back).unwrap();
        let speedup = view_recompute / view_incremental;
        if batch == 1 {
            view_refresh_speedup = speedup;
        }
        view_series.push(format!(
            "{{ \"delta_rows\": {batch}, \"incremental_median_ns\": {view_incremental}, \"recompute_median_ns\": {view_recompute}, \"speedup\": {speedup:.2} }}"
        ));
    }
    let view_series = view_series.join(", ");

    // PR 3: deep_copy sequential vs thread-chunked. The cutoff is pinned
    // low so the chunked path is exercised at every scale (the CI smoke
    // scale sits below the production cutoff).
    let deep_copy_seq = with_threads("1", || {
        median_ns(samples, || {
            black_box(fdm_fql::deep_copy(&db).unwrap());
        })
    });
    let deep_copy_par = with_threads_cutoff(par_threads, "64", || {
        median_ns(samples, || {
            black_box(fdm_fql::deep_copy(&db).unwrap());
        })
    });

    // sanity: every path agrees before we publish numbers
    assert_eq!(
        legacy_filter_fn(&customers, pred).unwrap().len(),
        with_threads(par_threads, || fdm_fql::filter_fn(&customers, pred)
            .unwrap()
            .len())
    );
    assert_eq!(
        legacy_join(&db).unwrap().len(),
        with_threads(par_threads, || fdm_fql::join(&db).unwrap().len())
    );
    let lu = legacy_union(&db, &changed).unwrap();
    let mu = fdm_fql::union(&db, &changed).unwrap();
    let lm = legacy_minus(&changed, &db).unwrap();
    let mm = fdm_fql::minus(&changed, &db).unwrap();
    let pm = pr2_minus(&changed, &db).unwrap();
    let mi = fdm_fql::intersect(&db, &changed).unwrap();
    let pi = pr2_intersect(&db, &changed).unwrap();
    for name in ["customers", "products", "orders_flat"] {
        if let (Ok(lr), Ok(mr)) = (lu.relation(name), mu.relation(name)) {
            assert_eq!(lr.len(), mr.len(), "union diverges on {name}");
        }
        if let (Ok(lr), Ok(mr)) = (lm.relation(name), mm.relation(name)) {
            assert_eq!(lr.len(), mr.len(), "minus diverges on {name}");
        }
        if let (Ok(lr), Ok(mr)) = (pm.relation(name), mm.relation(name)) {
            assert_eq!(lr.len(), mr.len(), "cached minus diverges on {name}");
        }
        if let (Ok(lr), Ok(mr)) = (pi.relation(name), mi.relation(name)) {
            assert_eq!(lr.len(), mr.len(), "cached intersect diverges on {name}");
        }
    }
    let dc_seq = with_threads("1", || fdm_fql::deep_copy(&db).unwrap());
    let dc_par = with_threads_cutoff(par_threads, "64", || fdm_fql::deep_copy(&db).unwrap());
    assert!(
        fdm_fql::difference(&dc_seq, &dc_par).unwrap().is_empty(),
        "parallel deep_copy diverges from sequential"
    );
    // hash-bucketed grouping must reproduce the BTreeMap output exactly
    let lg = legacy_group_fn(&orders_flat, group_key).unwrap();
    let hg = fdm_fql::group_fn(&orders_flat, group_key).unwrap();
    assert_eq!(lg.stored_keys(), hg.as_relation().stored_keys());
    assert_eq!(lg.len(), hg.as_relation().len());
    // both join orderings must produce identical denormalized data
    let je = with_join_cost(Some("entries"), || fdm_fql::join(&fan_db).unwrap());
    let js = with_join_cost(None, || fdm_fql::join(&fan_db).unwrap());
    assert_eq!(je.len(), js.len(), "join plans diverge in cardinality");
    let data_keys = |rel: &RelationF| {
        let mut keys: Vec<Value> = rel
            .tuples()
            .unwrap()
            .into_iter()
            .map(|(_, t)| t.data_key().unwrap())
            .collect();
        keys.sort();
        keys
    };
    assert_eq!(data_keys(&je), data_keys(&js), "join plans diverge in data");
    // the reordered lazy plan must genuinely differ from the declared one
    // and still produce identical keyed data (canonical row ids)
    assert_ne!(
        plan_q.explain(),
        plan_reordered.explain(),
        "optimize_for should reorder the skewed plan"
    );
    let pd = plan_q.eval(&reorder_db).unwrap();
    let po = plan_reordered.eval(&reorder_db).unwrap();
    assert_eq!(pd.stored_keys(), po.stored_keys(), "canonical ids agree");
    assert_eq!(
        data_keys(&pd),
        data_keys(&po),
        "plan reorder diverges in data"
    );

    // the rule-engine plan must genuinely differ from both the declared
    // and the legacy-pass plan (otherwise the series measures noise) and
    // all three must produce identical keyed data (canonical row ids)
    assert_ne!(
        rule_q.explain(),
        rule_engine_plan.explain(),
        "default rules should rewrite the chain plan"
    );
    assert_ne!(
        rule_legacy_plan.explain(),
        rule_engine_plan.explain(),
        "greedy enumeration should beat the adjacent bubble on the chain"
    );
    let cd = rule_q.eval(&rule_db).unwrap();
    let cl = rule_legacy_plan.eval(&rule_db).unwrap();
    let cr = rule_engine_plan.eval(&rule_db).unwrap();
    assert_eq!(cd.stored_keys(), cr.stored_keys(), "canonical ids agree");
    assert_eq!(
        data_keys(&cd),
        data_keys(&cr),
        "rule engine diverges in data"
    );
    assert_eq!(
        data_keys(&cd),
        data_keys(&cl),
        "legacy pass diverges in data"
    );

    // the throughput run must have installed exactly one version per
    // commit (no lost updates, no double-installs)
    assert_eq!(
        txn_store.version(),
        txn_commits as u64,
        "txn throughput run: one version per commit"
    );

    let gate = GateMetrics {
        union_speedup: union_insert / union_merge,
        minus_speedup: minus_uncached / minus_cached,
        intersect_speedup: intersect_uncached / intersect_cached,
        deep_copy_speedup: deep_copy_seq / deep_copy_par,
        group_speedup: group_btree / group_hash,
        join_order_speedup: join_by_entries / join_by_stats,
        plan_reorder_speedup: reorder_declared / reorder_optimized,
        rule_optimizer_speedup: rule_declared / rule_engine,
        view_refresh_speedup,
        txn_commit_throughput: txn_throughput,
    };
    let json = format!(
        "    {{\n      \"scale_orders\": {orders},\n      \"samples\": {samples},\n      \"fig4_filter\": {{ \"before_median_ns\": {before_filter}, \"after_median_ns\": {seq_filter}, \"speedup\": {:.2} }},\n      \"fig6_join\": {{ \"before_median_ns\": {before_join}, \"after_median_ns\": {seq_join}, \"speedup\": {:.2} }},\n      \"fig4_filter_parallel\": {{ \"sequential_median_ns\": {seq_filter}, \"parallel_median_ns\": {par_filter}, \"threads\": {par_threads}, \"speedup\": {:.2} }},\n      \"fig6_join_parallel\": {{ \"sequential_median_ns\": {seq_join}, \"parallel_median_ns\": {par_join}, \"threads\": {par_threads}, \"speedup\": {:.2} }},\n      \"fig9_union\": {{ \"per_element_median_ns\": {union_insert}, \"merge_median_ns\": {union_merge}, \"union_speedup\": {:.2} }},\n      \"fig9_minus\": {{ \"per_element_median_ns\": {minus_insert}, \"uncached_merge_median_ns\": {minus_uncached}, \"cached_merge_median_ns\": {minus_cached}, \"minus_speedup\": {:.2} }},\n      \"fig9_intersect\": {{ \"uncached_merge_median_ns\": {intersect_uncached}, \"cached_merge_median_ns\": {intersect_cached}, \"intersect_speedup\": {:.2} }},\n      \"fig9_deep_copy\": {{ \"sequential_median_ns\": {deep_copy_seq}, \"parallel_median_ns\": {deep_copy_par}, \"threads\": {par_threads}, \"deep_copy_speedup\": {:.2} }},\n      \"fig4_group\": {{ \"btreemap_median_ns\": {group_btree}, \"hash_median_ns\": {group_hash}, \"group_speedup\": {:.2} }},\n      \"fig6_join_order\": {{ \"entry_count_median_ns\": {join_by_entries}, \"cost_model_median_ns\": {join_by_stats}, \"join_order_speedup\": {:.2} }},\n      \"fig6_plan_reorder\": {{ \"declared_median_ns\": {reorder_declared}, \"reordered_median_ns\": {reorder_optimized}, \"plan_reorder_speedup\": {:.2} }},\n      \"fig13_rule_optimizer\": {{ \"declared_median_ns\": {rule_declared}, \"legacy_pass_median_ns\": {rule_legacy}, \"rule_engine_median_ns\": {rule_engine}, \"legacy_pass_speedup\": {:.2}, \"rule_optimizer_speedup\": {:.2} }},\n      \"fig14_view_refresh\": {{ \"series\": [ {view_series} ], \"view_refresh_speedup\": {:.2} }},\n      \"fig11_txn_commit\": {{ \"threads\": {}, \"commits\": {txn_commits}, \"elapsed_ms\": {:.1}, \"mean_attempts\": {txn_mean_attempts:.3}, \"txn_commit_throughput\": {txn_throughput:.0} }}\n    }}",
        before_filter / seq_filter,
        before_join / seq_join,
        seq_filter / par_filter,
        seq_join / par_join,
        gate.union_speedup,
        gate.minus_speedup,
        gate.intersect_speedup,
        gate.deep_copy_speedup,
        gate.group_speedup,
        gate.join_order_speedup,
        gate.plan_reorder_speedup,
        rule_declared / rule_legacy,
        gate.rule_optimizer_speedup,
        gate.view_refresh_speedup,
        txn_cfg.threads,
        txn_elapsed.as_secs_f64() * 1_000.0,
    );
    (json, gate)
}

// ──────────────── PR 7: durability / recovery measurement ────────────────

/// Scratch directory for one durability measurement, wiped before use.
fn recovery_scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fdm-bench-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Commits/second of the concurrent retail writer mix against `store`.
fn writer_tps(store: &Arc<fdm_txn::Store>, cfg: &fdm_workload::MixedConfig) -> f64 {
    let start = Instant::now();
    let records = fdm_workload::run_writers(store, cfg);
    records.len() as f64 / start.elapsed().as_secs_f64()
}

/// The `fig12_recovery` block: WAL commit overhead (throughput with the
/// WAL off vs group-commit vs fsync-per-commit, same writer mix, fresh
/// store each) and recovery time vs WAL length (`Store::open` on a log
/// of `n` commits, no checkpoint to anchor closer than version 0).
/// Returns `(json, wal_commit_overhead, recovery_replay_per_sec)`.
fn measure_recovery(quick: bool) -> (String, f64, f64) {
    use fdm_txn::{DurabilityConfig, Store, StoreConfig, SyncPolicy};

    let retail = standard_config(2_000);
    let txn_cfg = fdm_workload::MixedConfig {
        threads: 4,
        ops_per_thread: if quick { 100 } else { 250 },
        seed: 0xFD17,
        skew: 0.8,
    };
    let commits = txn_cfg.threads * txn_cfg.ops_per_thread;
    println!("fig12_recovery: {commits} commits per throughput series");

    let wal_off_tps = writer_tps(&fdm_workload::retail_store(&retail), &txn_cfg);
    let durable = |tag: &str, sync: SyncPolicy| {
        let dir = recovery_scratch(tag);
        let dcfg = DurabilityConfig::new(&dir)
            .with_sync(sync)
            .with_checkpoint_every(None);
        let store = fdm_workload::durable_retail_store(&retail, dcfg).expect("fresh scratch dir");
        let tps = writer_tps(&store, &txn_cfg);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        tps
    };
    let wal_group_tps = durable("group", SyncPolicy::EveryN(32));
    let wal_fsync_tps = durable("fsync", SyncPolicy::Always);
    let wal_commit_overhead = wal_off_tps / wal_group_tps;

    // recovery time vs WAL length: a plain kv store (tiny writesets, so
    // the series tracks replay machinery, not tuple size), built with
    // fsync off (setup speed; recovery cost does not depend on it) and
    // auto-checkpointing disabled so every run replays the full log.
    let lengths: &[u64] = if quick {
        &[50, 200, 800]
    } else {
        &[200, 800, 3_200]
    };
    let mut series = Vec::new();
    let mut replay_per_sec = 0.0;
    for &n in lengths {
        let dir = recovery_scratch(&format!("len{n}"));
        let dcfg = DurabilityConfig::new(&dir)
            .with_sync(SyncPolicy::Never)
            .with_checkpoint_every(None);
        let db = DatabaseF::new("ledger").with_relation(RelationF::new("kv", &["k"]));
        let store = Store::create(
            db,
            StoreConfig {
                durability: Some(dcfg),
                ..StoreConfig::default()
            },
        )
        .expect("fresh scratch dir");
        for i in 1..=n as i64 {
            store
                .run(|txn| {
                    txn.upsert(
                        "kv",
                        Value::Int(i % 64),
                        TupleF::builder("t").attr("v", i).build(),
                    )
                })
                .expect("uncontended commit");
        }
        drop(store);
        let wal_bytes: u64 = std::fs::read_dir(&dir)
            .expect("scratch dir exists")
            .filter_map(|e| {
                let e = e.expect("readable entry");
                (e.path().extension().and_then(|s| s.to_str()) == Some("seg"))
                    .then(|| e.metadata().expect("metadata").len())
            })
            .sum();
        let mut opens: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now();
                let back = Store::open(&dir).expect("clean log reopens");
                assert_eq!(back.version(), n, "recovery replays the whole log");
                start.elapsed().as_secs_f64()
            })
            .collect();
        opens.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let open_s = opens[opens.len() / 2];
        replay_per_sec = n as f64 / open_s;
        println!(
            "fig12_recovery: {n} commits, {wal_bytes} WAL bytes, open {:.1} ms ({replay_per_sec:.0} commits/s)",
            open_s * 1_000.0
        );
        series.push(format!(
            "      {{ \"commits\": {n}, \"wal_bytes\": {wal_bytes}, \"open_ms\": {:.2}, \"replay_per_sec\": {replay_per_sec:.0} }}",
            open_s * 1_000.0
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    let json = format!(
        "  {{\n    \"txn_threads\": {},\n    \"commits\": {commits},\n    \"wal_off_tps\": {wal_off_tps:.0},\n    \"wal_group_commit_tps\": {wal_group_tps:.0},\n    \"wal_fsync_always_tps\": {wal_fsync_tps:.0},\n    \"wal_commit_overhead\": {wal_commit_overhead:.3},\n    \"recovery\": [\n{}\n    ],\n    \"recovery_replay_per_sec\": {replay_per_sec:.0}\n  }}",
        txn_cfg.threads,
        series.join(",\n")
    );
    (json, wal_commit_overhead, replay_per_sec)
}

/// The label of every trajectory entry this binary writes — one name for
/// good, so an appended entry is committed as produced (which PR recorded
/// it is in `CHANGES.md` and the file's history).
const ENTRY: &str = "bench_bulk";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let quick_out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("bench_quick.json");
    let (scales, samples, out_path): (Vec<usize>, usize, Option<&str>) = if quick {
        (vec![2_000], 7, None)
    } else {
        (vec![1_000, 20_000], 15, Some("BENCH_fig4_fig6.json"))
    };
    let par_threads = "4";

    let mut scale_reports = Vec::new();
    let mut last_gate = None;
    for orders in scales {
        let (json, gate) = measure_scale(orders, samples, par_threads);
        scale_reports.push(json);
        last_gate = Some(gate);
    }
    // fig12 runs once per entry: its series are WAL-length-parameterized
    // already, independent of the retail scale loop above.
    let (fig12, wal_commit_overhead, recovery_replay_per_sec) = measure_recovery(quick);
    let entry = if quick {
        format!(
            "{{\n  \"entry\": \"{ENTRY}\",\n  \"scales\": [\n{}\n  ],\n  \"fig12_recovery\":\n{fig12}\n}}",
            scale_reports.join(",\n")
        )
    } else {
        // Full runs additionally record the gate baseline at the *quick*
        // scale, placed last in the entry: `bench_gate` scans for the
        // last occurrence of each `*_speedup` key, so the committed
        // numbers it compares against are measured at exactly the scale
        // the CI quick run reproduces. (`fig12_recovery` carries no
        // `*_speedup` keys, so its placement is inert to the gate.)
        let (baseline, _) = measure_scale(2_000, samples, par_threads);
        format!(
            "{{\n  \"entry\": \"{ENTRY}\",\n  \"scales\": [\n{}\n  ],\n  \"fig12_recovery\":\n{fig12},\n  \"quick_gate_baseline\":\n{baseline}\n}}",
            scale_reports.join(",\n")
        )
    };
    println!("{entry}");

    if quick {
        // Machine-readable summary for the CI regression gate: one flat
        // object, one `<metric>_speedup` key per gated ratio, plus the
        // recorded-only absolute txn throughput (bench_gate never gates
        // it — see ARMED_METRICS there).
        let g = last_gate.expect("at least one scale ran");
        let summary = format!(
            "{{\n  \"entry\": \"bench_quick\",\n  \"samples\": {samples},\n  \"union_speedup\": {:.3},\n  \"minus_speedup\": {:.3},\n  \"intersect_speedup\": {:.3},\n  \"deep_copy_speedup\": {:.3},\n  \"group_speedup\": {:.3},\n  \"join_order_speedup\": {:.3},\n  \"plan_reorder_speedup\": {:.3},\n  \"rule_optimizer_speedup\": {:.3},\n  \"view_refresh_speedup\": {:.3},\n  \"txn_commit_throughput\": {:.0},\n  \"wal_commit_overhead\": {wal_commit_overhead:.3},\n  \"recovery_replay_per_sec\": {recovery_replay_per_sec:.0}\n}}\n",
            g.union_speedup,
            g.minus_speedup,
            g.intersect_speedup,
            g.deep_copy_speedup,
            g.group_speedup,
            g.join_order_speedup,
            g.plan_reorder_speedup,
            g.rule_optimizer_speedup,
            g.view_refresh_speedup,
            g.txn_commit_throughput,
        );
        std::fs::write(quick_out, summary).expect("write quick summary");
        println!("wrote {quick_out}");
    }

    if let Some(path) = out_path {
        // The file is a trajectory: append this entry to the recorded
        // series (wrapping a legacy single-object file into an array).
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
}
