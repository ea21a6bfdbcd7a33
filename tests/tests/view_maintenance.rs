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
//!   nodes per maintained relation — counted, not timed.

use fdm_core::delta::{DbDelta, EntryDelta};
use fdm_core::{DatabaseF, FnValue, TupleF, Value};
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

/// Applies one delta (computed by diffing the database values) and
/// checks the oracle. Returns the number of output rows that changed.
fn step(view: &mut MaintainedView, before: &DatabaseF, after: &DatabaseF, ctx: &str) -> usize {
    let delta = DbDelta::between(before, after).expect("diffable databases");
    let n = view.apply(after, &delta).expect("delta application");
    assert_view_equiv(view, after, ctx);
    n
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

/// The view-path sharing pin (a count, so it cannot flake): applying a
/// one-row delta allocates O(log n) tree nodes in every relation a view
/// maintains — each operator's output and each join's cached right side
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
    let mut view = MaintainedView::new("stream", plan, &db0).unwrap();
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
        step(&mut view, &db, &after, &format!("stream step {i}"));
        db = after;
    }
    let stats = view.stats();
    assert!(stats.deltas_applied >= 1000, "{stats:?}");
    assert_eq!(
        stats.fallback_recomputes, 0,
        "a pure point-write stream never falls back: {stats:?}"
    );
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
