//! The differential oracle for incremental view maintenance (PR 9):
//! after every mutation, a [`MaintainedView`] fed only the delta must
//! equal re-running its plan from scratch — same canonical keys, same
//! tuple data, same order (`fdm_tests::assert_view_equiv`).
//!
//! Covered here:
//!
//! * every plan operator (scan, filter, project, join, group/aggregate,
//!   order-by, limit) × every mutation kind (insert, remove, update);
//! * whole-entry rebinds (`EntryDelta::Replaced`, what a transactional
//!   `Assign` produces) routed through the scoped-recompute fallback,
//!   pinned by the `fallback_recomputes` counter;
//! * a long seeded mutation stream (1200+ steps) over a
//!   scan→join→filter→group plan, oracle-checked at every step;
//! * proptest: random plan trees (the optimizer-rules generator shapes)
//!   × random mutation streams — run under whatever `THREADS` the
//!   harness pins (the CI determinism job runs this file at 1 and 4);
//! * `docs/VIEWS.md`'s worked transcript equals live output;
//! * the structure-sharing pin: a one-row delta allocates O(log n) tree
//!   nodes per maintained relation — counted, not timed;
//! * the statelessness pins (PR 20): scan, filter and project keep a
//!   relation only as the root or as a re-read input, the row count
//!   `apply` reports is the size of the output's own diff, and a rebind
//!   of the scanned relation recomputes once, where state lives;
//! * the one-row pin: once warm, a one-row update the filter rejects on
//!   both sides allocates nothing inside `apply` — the scan keeps its
//!   key-inlining memo and hands on the stored tuple, so no inlined shape
//!   or inlined tuple is built for a row nobody keeps. Counted with a
//!   thread-local counting allocator, so it cannot flake.

use fdm_core::delta::{diff_relations, DbDelta, EntryDelta};
use fdm_core::{DatabaseF, FnValue, RelationF, TupleF, Value};
use fdm_expr::Params;
use fdm_fql::plan::Query;
use fdm_fql::testutil::{retail_db, skewed_db};
use fdm_fql::transform::Order;
use fdm_fql::update::{db_delete, db_upsert};
use fdm_fql::{AggSpec, MaintainedView};
use fdm_tests::assert_view_equiv;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local `Cell`
// with a const initializer and no destructor, so touching it neither
// allocates nor can run during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Applies `delta` and checks both oracles: the view equals a recompute
/// over `after`, and the row count `apply` reports is the size of the
/// diff between the output before and after — an operator that derives a
/// change's `old` side wrongly over- or under-reports here even where the
/// final rows come out right. Returns that count.
fn apply_checked(
    view: &mut MaintainedView,
    after: &DatabaseF,
    delta: &DbDelta,
    ctx: &str,
) -> usize {
    let previous = view.relation();
    let n = view.apply(after, delta).expect("delta application");
    assert_view_equiv(view, after, ctx);
    let moved = diff_relations(&previous, &view.relation()).expect("diffable outputs");
    assert_eq!(n, moved.len(), "{ctx}: reported row changes");
    n
}

/// [`apply_checked`] with the delta computed by diffing the databases.
fn step(view: &mut MaintainedView, before: &DatabaseF, after: &DatabaseF, ctx: &str) -> usize {
    let delta = DbDelta::between(before, after).expect("diffable databases");
    apply_checked(view, after, &delta, ctx)
}

fn base_row(wk: i64, nk: i64) -> TupleF {
    TupleF::builder("b").attr("wk", wk).attr("nk", nk).build()
}

fn wide_row(k: i64, wv: i64) -> TupleF {
    TupleF::builder("w").attr("k", k).attr("wv", wv).build()
}

fn narrow_row(k2: i64, nv: i64) -> TupleF {
    TupleF::builder("n").attr("k2", k2).attr("nv", nv).build()
}

/// One plan per operator the executor supports, all over `skewed_db`.
fn operator_corpus() -> Vec<(&'static str, Query)> {
    vec![
        ("scan", Query::scan("base")),
        (
            "filter",
            Query::scan("base").filter("nk > 1", Params::new()),
        ),
        ("project", Query::scan("base").project(&["wk", "nk"])),
        ("join", Query::scan("base").join("wide", "wk", "k")),
        (
            "join_chain_filter",
            Query::scan("base")
                .join("wide", "wk", "k")
                .join("narrow", "nk", "k2")
                .filter("2 > 1 and nk >= 2", Params::new()),
        ),
        (
            "group_agg",
            Query::scan("base").group_agg(
                &["nk"],
                &[("n", AggSpec::Count), ("total", AggSpec::Sum("wk".into()))],
            ),
        ),
        (
            "order_by_limit",
            Query::scan("base").order_by("nk", Order::Desc).limit(3),
        ),
    ]
}

/// The shared mutation script: inserts, updates (both value-only and
/// join-key rewires), and removes, on every base relation a plan can
/// touch. Returns each intermediate database, oldest first.
type MutationStep = (&'static str, Box<dyn Fn(&DatabaseF) -> DatabaseF>);

fn mutation_script(db0: &DatabaseF) -> Vec<(&'static str, DatabaseF)> {
    let mut out: Vec<(&'static str, DatabaseF)> = Vec::new();
    let mut db = db0.clone();
    let steps: Vec<MutationStep> = vec![
        (
            "insert base",
            Box::new(|d| db_upsert(d, "base", Value::Int(7), base_row(2, 1)).unwrap()),
        ),
        (
            "update base value",
            Box::new(|d| db_upsert(d, "base", Value::Int(7), base_row(2, 5)).unwrap()),
        ),
        (
            "rewire base join key",
            Box::new(|d| db_upsert(d, "base", Value::Int(1), base_row(6, 1)).unwrap()),
        ),
        (
            "remove base",
            Box::new(|d| db_delete(d, "base", &Value::Int(3)).unwrap()),
        ),
        (
            "insert wide",
            Box::new(|d| db_upsert(d, "wide", Value::Int(99), wide_row(2, 990)).unwrap()),
        ),
        (
            "update wide value",
            Box::new(|d| db_upsert(d, "wide", Value::Int(1), wide_row(1, -1)).unwrap()),
        ),
        (
            "rewire wide join key",
            Box::new(|d| db_upsert(d, "wide", Value::Int(2), wide_row(5, 2)).unwrap()),
        ),
        (
            "remove wide",
            Box::new(|d| db_delete(d, "wide", &Value::Int(3)).unwrap()),
        ),
        (
            "insert narrow",
            Box::new(|d| db_upsert(d, "narrow", Value::Int(9), narrow_row(5, 55)).unwrap()),
        ),
        (
            "update narrow",
            Box::new(|d| db_upsert(d, "narrow", Value::Int(2), narrow_row(2, -20)).unwrap()),
        ),
        (
            "remove narrow",
            Box::new(|d| db_delete(d, "narrow", &Value::Int(5)).unwrap()),
        ),
    ];
    for (label, apply) in steps {
        db = apply(&db);
        out.push((label, db.clone()));
    }
    out
}

#[test]
fn every_operator_tracks_every_mutation_kind() {
    let db0 = skewed_db();
    for (op, plan) in operator_corpus() {
        let mut view =
            MaintainedView::new(format!("v_{op}"), plan, &db0).expect("initial evaluation");
        assert_view_equiv(&view, &db0, &format!("{op}: initial materialization"));
        let mut before = db0.clone();
        for (label, after) in mutation_script(&db0) {
            step(&mut view, &before, &after, &format!("{op}: after {label}"));
            before = after;
        }
    }
}

/// `skewed_db`'s schema at `n` base rows: `wide` holds one row per join
/// value `k` in `1..=n` (so the join outputs grow with n), `narrow` six,
/// and `base.nk` cycles through six values (so the groups grow with n).
/// Ids and join values are small ints on purpose: they are what the join
/// executor's and the join node's hash maps are keyed by in practice, and
/// what the unfinished Fx hash once put on a single probe chain
/// (`fdm_core::fxhash`).
fn scaled_db(n: i64) -> DatabaseF {
    let mut base = fdm_core::RelationBuilder::new("base", &["id"]);
    let mut wide = fdm_core::RelationBuilder::new("wide", &["wid"]);
    for i in 1..=n {
        base.push(Value::Int(i), base_row(i, 1 + i % 6));
        wide.push(Value::Int(i), wide_row(i, 10 * i));
    }
    let mut narrow = fdm_core::RelationBuilder::new("narrow", &["nid"]);
    for k in 1..=6 {
        narrow.push(Value::Int(k), narrow_row(k, 10 * k));
    }
    DatabaseF::new("scaled")
        .with_relation(base.build().unwrap())
        .with_relation(wide.build().unwrap())
        .with_relation(narrow.build().unwrap())
}

/// How many relations a view over `plan` keeps: the root's output, every
/// join's output and cached right side, every group/aggregate's and
/// order-by/limit's output, and the input a join, order-by or limit
/// re-reads. A scan, filter or project anywhere else keeps none.
fn kept_relations(plan: &Query) -> usize {
    fn below(plan: &Query, read_by_parent: bool) -> usize {
        match plan {
            Query::Scan { .. } => usize::from(read_by_parent),
            Query::Filter { input, .. } | Query::Project { input, .. } => {
                usize::from(read_by_parent) + below(input, false)
            }
            Query::Join { input, .. } => 2 + below(input, true),
            Query::GroupAgg { input, .. } => 1 + below(input, false),
            Query::OrderBy { input, .. } | Query::Limit { input, .. } => 1 + below(input, true),
            Query::Invalid { .. } => 0,
        }
    }
    below(plan, true)
}

/// The two view shapes `fdm_benchmark`'s `view_commit` registers, and a
/// filter feeding a join, over `skewed_db`.
fn benchmark_shapes() -> [(&'static str, Query); 3] {
    let filtered = || Query::scan("base").filter("nk > 1", Params::new());
    [
        (
            "filter_group",
            filtered().group_agg(
                &["nk"],
                &[("n", AggSpec::Count), ("total", AggSpec::Sum("wk".into()))],
            ),
        ),
        ("filter_project", filtered().project(&["wk", "nk"])),
        ("filter_join", filtered().join("wide", "wk", "k")),
    ]
}

/// Scan, filter and project are change transformers: they keep a relation
/// only where somebody reads it. At the parent commit every operator kept
/// one (three for each of the benchmark's views).
#[test]
fn stateless_operators_keep_no_relation() {
    let db = skewed_db();
    for (name, plan) in operator_corpus().into_iter().chain(benchmark_shapes()) {
        let view = MaintainedView::new(name, plan, &db).unwrap();
        assert_eq!(
            view.maintained_relations().len(),
            kept_relations(view.plan()),
            "{name}: {}",
            view.plan().explain()
        );
    }
    let kept = |plan: Query| {
        let view = MaintainedView::new("v", plan, &db).unwrap();
        view.maintained_relations().len()
    };
    let [(_, group), (_, project), (_, join)] = benchmark_shapes();
    assert_eq!(kept(group), 1, "scan→filter→group keeps the aggregates");
    assert_eq!(kept(project), 1, "scan→filter→project keeps the projection");
    assert_eq!(
        kept(join),
        3,
        "the join's output, right side and left input"
    );
    assert_eq!(
        kept(Query::scan("base").order_by("nk", Order::Asc).limit(2)),
        3
    );
}

/// The view-path sharing pin (a count, so it cannot flake): applying a
/// one-row delta allocates O(log n) tree nodes in every relation a view
/// maintains — each kept operator output and each join's cached right side
/// — and shares the rest with the version before. At the parent commit
/// every one of them was rebuilt node for node (n fresh nodes).
#[test]
fn one_row_deltas_allocate_logarithmically() {
    for n in [2_000i64, 32_000] {
        let db0 = scaled_db(n);
        let mid = n / 2 + 1;
        let rewired = base_row(mid + 7, 1 + (mid + 3) % 6);
        let db1 = db_upsert(&db0, "base", Value::Int(mid), rewired).unwrap();
        let db2 = db_upsert(&db1, "wide", Value::Int(mid + 1), wide_row(mid + 1, -1)).unwrap();
        let db3 = db_delete(&db2, "base", &Value::Int(mid)).unwrap();
        let steps = [
            ("rewire one base row", &db0, &db1),
            ("update one wide row", &db1, &db2),
            ("remove one base row", &db2, &db3),
        ];
        for (name, plan) in operator_corpus() {
            if name == "order_by_limit" {
                continue; // no delta rule: a scoped recompute by design
            }
            let mut view = MaintainedView::new(name, plan, &db0).expect("build");
            for (what, before_db, after_db) in steps {
                let ctx = format!("n={n}, plan={name}, {what}");
                let before = view.maintained_relations();
                let delta = DbDelta::between(before_db, after_db).unwrap();
                view.apply(after_db, &delta).expect("delta application");
                let after = view.maintained_relations();
                assert_eq!(before.len(), after.len(), "{ctx}");
                for (i, (old, new)) in before.iter().zip(&after).enumerate() {
                    let (old, new) = (old.stored_map().unwrap(), new.stored_map().unwrap());
                    let fresh = new.fresh_nodes(old);
                    // a removed and an added row: two paths, plus rotations
                    let budget = 4 * old.tree_height().max(1) + 8;
                    assert!(
                        fresh <= budget,
                        "{ctx}: maintained relation #{i} ({} rows) allocated {fresh} nodes, \
                         budget {budget}",
                        new.len()
                    );
                }
            }
            assert_eq!(view.stats().fallback_recomputes, 0, "n={n}, plan={name}");
            // the shared result is still the right one (once per plan: the
            // recompute is the expensive part of this test)
            assert_view_equiv(&view, &db3, &format!("n={n}, plan={name}"));
        }
    }
}

/// A one-row update the filter rejects on both sides (`nk` stays 1, so
/// `nk > 1` fails before and after) allocates nothing inside `apply` once
/// the view is warm, for both benchmark-shaped views — whether the new
/// tuple shares its shape with the old one (a replaced attribute) or was
/// built on its own. A scan that derived the inlined shape per apply, or
/// inlined both sides of the change eagerly, would allocate here.
#[test]
fn rejected_one_row_updates_allocate_nothing() {
    for n in [2_000i64, 32_000] {
        let db0 = scaled_db(n);
        let [group, project, _] = benchmark_shapes();
        for (name, plan) in [group, project] {
            let mut view = MaintainedView::new(name, plan, &db0).expect("build");
            let mut db = db0.clone();
            for step in 0..4i64 {
                let id = 6 * (n / 12 + step); // `1 + id % 6` = 1: rejected
                let stored = db.relation("base").unwrap().lookup(&Value::Int(id));
                let tuple = match step % 2 {
                    0 => base_row(1000 + step, 1),
                    _ => stored.unwrap().with_attr("wk", 2000 + step),
                };
                let after = db_upsert(&db, "base", Value::Int(id), tuple).unwrap();
                let delta = DbDelta::between(&db, &after).unwrap();
                let (changed, allocs) = allocations(|| view.apply(&after, &delta));
                let ctx = format!("n={n}, {name}, step {step}");
                assert_eq!(changed.expect("delta application"), 0, "{ctx}");
                if step > 0 {
                    assert_eq!(allocs, 0, "{ctx}: a rejected row allocated");
                }
                db = after;
            }
            assert_view_equiv(&view, &db, &format!("n={n}, {name}"));
        }
    }
}

#[test]
fn no_op_deltas_change_nothing() {
    let db = skewed_db();
    for (op, plan) in operator_corpus() {
        let mut view = MaintainedView::new(format!("v_{op}"), plan, &db).unwrap();
        // identical before/after: the delta is empty, nothing recomputes
        let n = step(&mut view, &db, &db, &format!("{op}: no-op delta"));
        assert_eq!(n, 0, "{op}: empty delta must touch no rows");
        assert_eq!(view.stats().fallback_recomputes, 0, "{op}");
        // a write to an unrelated entry is equally invisible
        let other = db_upsert(&db, "narrow", Value::Int(77), narrow_row(7, 770)).unwrap();
        if op == "scan" || op == "filter" || op == "project" {
            let n = step(&mut view, &db, &other, &format!("{op}: unrelated write"));
            assert_eq!(n, 0, "{op}: unrelated relation must not disturb the view");
        }
    }
}

#[test]
fn whole_entry_rebinds_recompute_scoped_and_count_fallbacks() {
    let db = skewed_db();
    let mut view =
        MaintainedView::new("joined", Query::scan("base").join("wide", "wk", "k"), &db).unwrap();
    assert_eq!(view.stats().fallback_recomputes, 0);

    // what a transactional `Assign("wide", ...)` becomes: the whole
    // entry is replaced, with genuinely different data inside
    let halved = {
        let mut rel = db.relation("wide").unwrap().as_ref().clone();
        for wid in 13..=24i64 {
            rel = rel.delete(&Value::Int(wid)).unwrap();
        }
        rel
    };
    let db2 = db.with_entry("wide", FnValue::from(halved));
    let delta = DbDelta {
        entries: vec![(fdm_core::Name::from("wide"), EntryDelta::Replaced)],
    };
    view.apply(&db2, &delta).unwrap();
    assert_view_equiv(&view, &db2, "after wide was rebound wholesale");
    assert!(
        view.stats().fallback_recomputes >= 1,
        "a Replaced entry must go through the explicit fallback counter"
    );

    // point writes afterwards flow incrementally again
    let before_fallbacks = view.stats().fallback_recomputes;
    let db3 = db_upsert(&db2, "base", Value::Int(8), base_row(3, 3)).unwrap();
    step(&mut view, &db2, &db3, "point write after a rebind");
    assert_eq!(
        view.stats().fallback_recomputes,
        before_fallbacks,
        "row deltas must not fall back"
    );
}

/// A transactional `Assign` — alone, and after a `Drop` in the same
/// transaction — rebinds the relation every benchmark-shaped view scans.
/// The scan and the filter above it hold nothing to diff against, so the
/// rebind travels up to the first node that does — the aggregates, the
/// projection at the root, the filter a join re-reads — which recomputes
/// from its sub-plan: exactly one fallback per view per rebind.
#[test]
fn rebinding_the_scanned_relation_recomputes_once_where_state_lives() {
    let store = fdm_txn::Store::new(skewed_db());
    for (name, plan) in benchmark_shapes() {
        store.register_view(name, plan).unwrap();
    }
    // every view is at `version`, equals a recompute, and fell back
    // `fallbacks` times so far
    let check = |what: &str, version: u64, fallbacks: u64| {
        let db = store.snapshot();
        for (name, plan) in benchmark_shapes() {
            let (at, rel) = store.view(name).unwrap();
            assert_eq!(at, version, "{name} after {what}");
            let fresh = plan.optimize_for(&db).eval(&db).unwrap();
            assert_eq!(
                fdm_tests::canonical_rows(&rel),
                fdm_tests::canonical_rows(&fresh),
                "{name} after {what}"
            );
            let stats = store.view_stats(name).unwrap();
            assert_eq!(stats.fallback_recomputes, fallbacks, "{name} after {what}");
        }
    };
    let rebound = |rows: &[(i64, i64, i64)]| {
        let mut rel = RelationF::new("base", &["id"]);
        for &(id, wk, nk) in rows {
            rel = rel.insert(Value::Int(id), base_row(wk, nk)).unwrap();
        }
        FnValue::from(rel)
    };
    let mut txn = store.begin();
    let rows = [(1, 1, 1), (2, 2, 4), (9, 3, 4), (10, 5, 2)];
    txn.assign("base", rebound(&rows)).unwrap();
    check("assign", txn.commit().unwrap(), 1);

    let mut txn = store.begin();
    txn.drop_entry("base").unwrap();
    txn.assign("base", rebound(&[(2, 6, 3), (9, 3, 1), (11, 4, 3)]))
        .unwrap();
    check("drop + assign", txn.commit().unwrap(), 2);

    // point writes flow incrementally again
    let mut txn = store.begin();
    txn.upsert("base", Value::Int(2), base_row(1, 2)).unwrap();
    check("a point write", txn.commit().unwrap(), 2);
}

/// Every aggregate row — first built or re-aggregated — is built over the
/// group/aggregate node's one shape: no name and no shape is allocated
/// per re-aggregated group.
#[test]
fn re_aggregated_rows_share_one_shape() {
    let db0 = skewed_db();
    let [(_, plan), ..] = benchmark_shapes();
    let mut view = MaintainedView::new("by_nk", plan.clone(), &db0).unwrap();
    // one row moves from group 2 to group 3, another joins group 2: both
    // groups re-aggregate
    let db1 = db_upsert(&db0, "base", Value::Int(2), base_row(2, 3)).unwrap();
    let db1 = db_upsert(&db1, "base", Value::Int(7), base_row(9, 2)).unwrap();
    assert_eq!(step(&mut view, &db0, &db1, "regroup two rows"), 2);
    let rows = view.relation().tuples().unwrap();
    let shape_of = |nk: i64| {
        rows.iter()
            .find(|(k, _)| *k == Value::Int(nk))
            .unwrap()
            .1
            .shape()
    };
    assert!(
        std::sync::Arc::ptr_eq(shape_of(2), shape_of(3)),
        "re-aggregated rows"
    );
    assert!(rows
        .iter()
        .all(|(_, t)| std::sync::Arc::ptr_eq(t.shape(), shape_of(2))));
    // and they are the batch operator's rows, attribute for attribute
    let batch = plan.optimize_for(&db1).eval(&db1).unwrap();
    for ((_, ours), (_, theirs)) in rows.iter().zip(batch.tuples().unwrap()) {
        assert_eq!(ours.materialize().unwrap(), theirs.materialize().unwrap());
    }
}

#[test]
fn long_seeded_mutation_stream_stays_equivalent() {
    let db0 = skewed_db();
    let plan = Query::scan("base")
        .join("wide", "wk", "k")
        .filter("nk >= 2", Params::new())
        .group_agg(
            &["nk"],
            &[("n", AggSpec::Count), ("w", AggSpec::Sum("wide.wv".into()))],
        );
    // beside it, every corpus plan with a delta rule: each step checks
    // them all against recompute and the reported-row-count identity
    let mut views: Vec<MaintainedView> = std::iter::once(("stream", plan))
        .chain(operator_corpus())
        .filter(|(name, _)| *name != "order_by_limit")
        .map(|(name, plan)| MaintainedView::new(name, plan, &db0).unwrap())
        .collect();
    let mut rng = StdRng::seed_from_u64(0x9_2026);
    let mut db = db0;
    let mut next_id = 100i64;
    for i in 0..1200 {
        let rel = if rng.random_range(0..3) == 0 {
            "wide"
        } else {
            "base"
        };
        let keys: Vec<Value> = db
            .relation(rel)
            .unwrap()
            .tuples()
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let action = rng.random_range(0..4u32);
        let after = match action {
            // insert a fresh row (ids never collide with the fixture's)
            0 => {
                next_id += 1;
                let t = if rel == "base" {
                    base_row(rng.random_range(1..=8), rng.random_range(1..=8))
                } else {
                    wide_row(rng.random_range(1..=8), next_id)
                };
                db_upsert(&db, rel, Value::Int(next_id), t).unwrap()
            }
            // remove a random existing row (keep a floor so joins stay
            // interesting)
            1 if keys.len() > 3 => {
                let k = keys[rng.random_range(0..keys.len())].clone();
                db_delete(&db, rel, &k).unwrap()
            }
            // update: value-only or join-key rewire
            _ if !keys.is_empty() => {
                let k = keys[rng.random_range(0..keys.len())].clone();
                let t = if rel == "base" {
                    base_row(rng.random_range(1..=8), rng.random_range(1..=8))
                } else {
                    wide_row(rng.random_range(1..=8), rng.random_range(-50..50))
                };
                db_upsert(&db, rel, k, t).unwrap()
            }
            _ => continue,
        };
        for view in &mut views {
            let ctx = format!("{}: stream step {i}", view.name());
            step(view, &db, &after, &ctx);
        }
        db = after;
    }
    for view in &views {
        let stats = view.stats();
        assert!(stats.deltas_applied >= 1000, "{stats:?}");
        assert_eq!(
            stats.fallback_recomputes,
            0,
            "{}: a pure point-write stream never falls back: {stats:?}",
            view.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random plan trees (the optimizer-rules generator shapes) held as
    /// maintained views through random mutation streams: incremental
    /// equals recompute at every step.
    #[test]
    fn random_plans_survive_random_mutation_streams(
        join_shape in 0usize..4,
        filter_shape in 0usize..4,
        tail_shape in 0usize..4,
        seed in 0u64..1u64 << 32,
    ) {
        let db0 = skewed_db();
        let mut q = Query::scan("base");
        if join_shape & 1 != 0 {
            q = q.join("wide", "wk", "k");
        }
        if join_shape & 2 != 0 {
            q = q.join("narrow", "nk", "k2");
        }
        q = match filter_shape {
            1 => q.filter("nk > 1", Params::new()),
            2 => q.filter("2 > 1 and nk >= 2 and wk <= 5", Params::new()),
            3 => q.filter("1 > 2", Params::new()),
            _ => q,
        };
        q = match tail_shape {
            1 => q.project(&["nk", "wk"]),
            2 => q.group_agg(&["nk"], &[("n", AggSpec::Count)]),
            3 => q.order_by("nk", Order::Asc).limit(4),
            _ => q,
        };
        let mut view = MaintainedView::new("prop", q, &db0).expect("initial evaluation");
        assert_view_equiv(&view, &db0, "proptest: initial materialization");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = db0;
        let mut next_id = 1000i64;
        for i in 0..30 {
            let rel = ["base", "wide", "narrow"][rng.random_range(0..3usize)];
            let keys: Vec<Value> = db
                .relation(rel)
                .unwrap()
                .tuples()
                .unwrap()
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            let fresh = |rng: &mut StdRng| match rel {
                "base" => base_row(rng.random_range(1..=8), rng.random_range(1..=8)),
                "wide" => wide_row(rng.random_range(1..=8), rng.random_range(-50..50)),
                _ => narrow_row(rng.random_range(1..=8), rng.random_range(-50..50)),
            };
            let after = match rng.random_range(0..4u32) {
                0 => {
                    next_id += 1;
                    db_upsert(&db, rel, Value::Int(next_id), fresh(&mut rng)).unwrap()
                }
                1 if keys.len() > 2 => {
                    let k = keys[rng.random_range(0..keys.len())].clone();
                    db_delete(&db, rel, &k).unwrap()
                }
                _ if !keys.is_empty() => {
                    let k = keys[rng.random_range(0..keys.len())].clone();
                    db_upsert(&db, rel, k, fresh(&mut rng)).unwrap()
                }
                _ => continue,
            };
            let delta = DbDelta::between(&db, &after).unwrap();
            view.apply(&after, &delta).unwrap();
            assert_view_equiv(&view, &after, &format!("proptest step {i}"));
            db = after;
        }
    }
}

/// One stateless operator of a pinned chain; every choice keeps `wk` and
/// `nk`, so any sequence of them evaluates.
fn chain_op(q: Query, op: usize) -> Query {
    match op {
        0 => q.filter("nk > 1", Params::new()),
        1 => q.filter("wk <= 5 or nk = 6", Params::new()),
        2 => q.filter("1 > 2", Params::new()),
        3 => q.project(&["nk", "wk"]),
        _ => q.project(&["wk", "nk", "id"]),
    }
}

proptest! {
    /// Stateless ≡ materialized. A chain of filters and projections pinned
    /// exactly as drawn (`with_plan`: the optimizer would fuse it) keeps
    /// no relation below its top, whatever it feeds — the root, a
    /// group/aggregate, a join, a limit — and through point writes *and*
    /// whole-entry rebinds of the scanned relation the view equals the
    /// plan materialized from scratch, reports exactly the rows its output
    /// moved by, and recomputes once per rebind where its state lives.
    #[test]
    fn stateless_chains_match_materialized_recompute(
        ops in prop::collection::vec(0usize..5, 0..5),
        tail in 0usize..4,
        seed in 0u64..1u64 << 32,
    ) {
        let db0 = skewed_db();
        // `id` survives only until the first narrowing projection
        let narrowed = ops.iter().position(|&op| op == 3).unwrap_or(ops.len());
        let chain = ops
            .iter()
            .enumerate()
            .filter(|&(i, &op)| op != 4 || i < narrowed)
            .fold(Query::scan("base"), |q, (_, &op)| chain_op(q, op));
        let plan = match tail {
            1 => chain.group_agg(&["nk"], &[("n", AggSpec::Count), ("w", AggSpec::Sum("wk".into()))]),
            2 => chain.join("wide", "wk", "k"),
            3 => chain.limit(3),
            _ => chain,
        };
        let mut view = MaintainedView::with_plan("chain", plan.clone(), &db0).expect("build");
        assert_view_equiv(&view, &db0, "chain: initial materialization");
        let kept = kept_relations(&plan);
        prop_assert_eq!(view.maintained_relations().len(), kept);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = db0;
        let mut next_id = 1000i64;
        for i in 0..24 {
            let ctx = format!("chain step {i}: {}", plan.explain());
            let keys: Vec<Value> =
                db.relation("base").unwrap().tuples().unwrap().into_iter().map(|(k, _)| k).collect();
            let fresh = |rng: &mut StdRng| base_row(rng.random_range(1..=8), rng.random_range(1..=8));
            match rng.random_range(0..5u32) {
                // rebind `base` wholesale: some rows gone, one rewritten, one new
                0 => {
                    let mut rel = db.relation("base").unwrap().as_ref().clone();
                    for k in keys.iter().step_by(3) {
                        rel = rel.delete(k).unwrap();
                    }
                    next_id += 1;
                    rel = rel.upsert(Value::Int(next_id), fresh(&mut rng)).unwrap();
                    if let Some(k) = keys.get(1) {
                        rel = rel.upsert(k.clone(), fresh(&mut rng)).unwrap();
                    }
                    let after = db.with_entry("base", FnValue::from(rel));
                    let delta = DbDelta {
                        entries: vec![(fdm_core::Name::from("base"), EntryDelta::Replaced)],
                    };
                    let before = view.stats().fallback_recomputes;
                    apply_checked(&mut view, &after, &delta, &ctx);
                    let fell_back = view.stats().fallback_recomputes - before;
                    // a limit above recomputes as well when its input moved
                    prop_assert!(fell_back == 1 || (tail == 3 && fell_back == 2), "{ctx}: {fell_back}");
                    db = after;
                }
                kind => {
                    let after = match kind {
                        1 => {
                            next_id += 1;
                            db_upsert(&db, "base", Value::Int(next_id), fresh(&mut rng)).unwrap()
                        }
                        2 if keys.len() > 2 => {
                            let k = keys[rng.random_range(0..keys.len())].clone();
                            db_delete(&db, "base", &k).unwrap()
                        }
                        3 => {
                            let wid = Value::Int(rng.random_range(1..=24));
                            let row = wide_row(rng.random_range(1..=8), rng.random_range(-50..50));
                            db_upsert(&db, "wide", wid, row).unwrap()
                        }
                        _ if !keys.is_empty() => {
                            let k = keys[rng.random_range(0..keys.len())].clone();
                            db_upsert(&db, "base", k, fresh(&mut rng)).unwrap()
                        }
                        _ => continue,
                    };
                    let before = view.stats().fallback_recomputes;
                    let moved = step(&mut view, &db, &after, &ctx);
                    // only a limit falls back on row changes: whenever its
                    // input moved, so at least whenever its output did
                    let fell_back = view.stats().fallback_recomputes - before;
                    prop_assert!(fell_back <= u64::from(tail == 3), "{ctx}: {fell_back}");
                    prop_assert!(fell_back >= u64::from(tail == 3 && moved > 0), "{ctx}");
                    db = after;
                }
            }
            prop_assert_eq!(view.maintained_relations().len(), kept);
        }
    }
}

/// The worked transcript in `docs/VIEWS.md`, regenerated live: a
/// maintained filter view over the retail fixture followed through
/// three commits' worth of deltas.
fn views_md_transcript() -> String {
    let db0 = retail_db();
    let mut view = MaintainedView::new(
        "olds",
        Query::scan("customers").filter("age > $min", Params::new().set("min", 42)),
        &db0,
    )
    .unwrap();
    let mut out = String::new();
    let mut line = |view: &MaintainedView, label: &str| {
        let s = view.stats();
        out.push_str(&format!(
            "{label:<44} | {} rows, {} deltas applied, {} rows changed\n",
            view.relation().len(),
            s.deltas_applied,
            s.rows_changed,
        ));
    };
    line(&view, "DB('olds') := filter(customers, age > 42)");
    let steps = [
        (
            "v1  upsert customers[9] = (Zoe, 70)",
            db_upsert(
                &db0,
                "customers",
                Value::Int(9),
                TupleF::builder("c9")
                    .attr("name", "Zoe")
                    .attr("age", 70)
                    .build(),
            )
            .unwrap(),
        ),
        (
            "v2  upsert customers[2] = (Bob, 61)",
            db_upsert(
                &db_upsert(
                    &db0,
                    "customers",
                    Value::Int(9),
                    TupleF::builder("c9")
                        .attr("name", "Zoe")
                        .attr("age", 70)
                        .build(),
                )
                .unwrap(),
                "customers",
                Value::Int(2),
                TupleF::builder("c2")
                    .attr("name", "Bob")
                    .attr("age", 61)
                    .build(),
            )
            .unwrap(),
        ),
    ];
    let mut before = db0;
    for (label, after) in steps {
        step(&mut view, &before, &after, label);
        line(&view, label);
        before = after;
    }
    let after = db_delete(&before, "customers", &Value::Int(3)).unwrap();
    step(&mut view, &before, &after, "delete");
    line(&view, "v3  delete customers[3]            (Carol)");
    out
}

#[test]
fn views_md_worked_transcript_is_live() {
    let md = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../docs/VIEWS.md"))
        .expect("docs/VIEWS.md exists");
    let begin = md
        .find("<!-- ivm-transcript:begin -->")
        .expect("ivm-transcript begin marker");
    let end = md
        .find("<!-- ivm-transcript:end -->")
        .expect("ivm-transcript end marker");
    let block = &md[begin..end];
    let fence_open = block.find("```text").expect("```text fence") + "```text\n".len();
    let fence_close = block[fence_open..].find("```").expect("closing fence") + fence_open;
    let documented = &block[fence_open..fence_close];
    assert_eq!(
        documented,
        views_md_transcript(),
        "docs/VIEWS.md worked transcript drifted from live output"
    );
}
