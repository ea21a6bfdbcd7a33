//! Pins the plan-level join-reordering guarantee: `Query::optimize_for`
//! may change the **order** a chain of `Join` nodes executes in, never
//! **what** the plan produces. The enabling invariant is the canonical
//! row-id scheme (row ids derived from each output tuple's cached
//! `DataKey` fingerprint, not from emission order — see
//! `fdm_fql::plan`'s module docs and `docs/OPTIMIZER.md`).
//!
//! Mirroring `join_planning.rs`, two layers of pinning:
//!
//! * on a database crafted so the reordered plan genuinely differs from
//!   the declared left-deep order (and the test *proves* they differ by
//!   reading the executed order off `explain` and off the attribute
//!   declaration order of the output rows), the results are identical as
//!   keyed data: the same canonical row ids mapping to tuples with equal
//!   canonical data keys;
//! * `Optimizer::statistics_free()`, the reference every comparison
//!   here is made against, keeps the declared order exactly — `explain`
//!   output equal to the declared plan's.
//!
//! A property test repeats the equivalence on randomized fan-out-skewed
//! databases, and a transcript test keeps `docs/OPTIMIZER.md`'s worked
//! `explain_with_cost` example in sync with the real tool output.

use fdm_core::{DatabaseF, RelationBuilder, RelationF, TupleF, Value};
use fdm_expr::{BinOp, Expr, Params};
use fdm_fql::optimizer::Optimizer;
use fdm_fql::plan::Query;
use proptest::prelude::*;

/// A database where the declared join order is the expensive one. `base`
/// rows join `wide.k` with fan-out `wide_fanout` and `narrow.k2` with
/// fan-out 1; the declared plan binds `wide` first, multiplying the
/// working rows before the cheap extension — exactly the shape the
/// statistics should fix.
fn skewed_db(base_rows: i64, wide_fanout: usize, narrow_per_key: usize) -> DatabaseF {
    let mut base = RelationBuilder::new("base", &["id"]);
    for i in 1..=base_rows {
        base.push(
            Value::Int(i),
            TupleF::builder("b")
                .attr("wk", i)
                .attr("nk", i)
                .attr("tag", format!("b{i}"))
                .build(),
        );
    }
    let mut wide = RelationBuilder::new("wide", &["wid"]);
    let mut wid = 0i64;
    for k in 1..=base_rows {
        for _ in 0..wide_fanout {
            wid += 1;
            wide.push(
                Value::Int(wid),
                TupleF::builder("w").attr("k", k).attr("wv", wid).build(),
            );
        }
    }
    let mut narrow = RelationBuilder::new("narrow", &["nid"]);
    let mut nid = 0i64;
    for k in 1..=base_rows {
        for _ in 0..narrow_per_key {
            nid += 1;
            narrow.push(
                Value::Int(nid),
                TupleF::builder("n").attr("k2", k).attr("nv", k * 7).build(),
            );
        }
    }
    DatabaseF::new("skewed")
        .with_relation(base.build().unwrap())
        .with_relation(wide.build().unwrap())
        .with_relation(narrow.build().unwrap())
}

fn declared_query() -> Query {
    Query::scan("base")
        .join("wide", "wk", "k")
        .join("narrow", "nk", "k2")
}

/// Depth of the line mentioning `needle` in an `explain` tree — deeper
/// lines execute earlier.
fn depth_of(plan: &str, needle: &str) -> usize {
    plan.lines()
        .find(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("no line mentions {needle} in:\n{plan}"))
        .chars()
        .take_while(|c| *c == ' ')
        .count()
}

/// Which join ran first, read off the attribute declaration order the
/// executed plan leaves behind in the output rows.
fn first_executed(rel: &RelationF, earlier: &str, later: &str) -> bool {
    let (_, t) = rel.tuples().unwrap().remove(0);
    let names: Vec<String> = t.attr_names().map(|n| n.to_string()).collect();
    let pos = |prefix: &str| {
        names
            .iter()
            .position(|n| n.starts_with(prefix))
            .unwrap_or_else(|| panic!("no attribute with prefix {prefix} in {names:?}"))
    };
    pos(earlier) < pos(later)
}

/// The keyed content of a plan result: every canonical row id with its
/// tuple's canonical data key.
fn keyed_data(rel: &RelationF) -> Vec<(Value, Value)> {
    rel.tuples()
        .unwrap()
        .into_iter()
        .map(|(k, t)| (k, t.data_key().unwrap()))
        .collect()
}

#[test]
fn reordering_changes_the_plan_never_the_results() {
    let db = skewed_db(8, 5, 1);
    let q = declared_query();

    let reordered = q.clone().optimize_for(&db);
    let pinned = Optimizer::statistics_free().optimize(q.clone(), &db);

    // the plans genuinely differ: reordering binds the fan-out-1 narrow
    // join before the row-multiplying wide join; the statistics-free
    // optimizer keeps declared
    let plan = reordered.explain();
    assert!(
        depth_of(&plan, "narrow") > depth_of(&plan, "wide"),
        "narrow executes first when reordered:\n{plan}"
    );
    assert_eq!(
        pinned.explain(),
        q.explain(),
        "the statistics-free optimizer keeps the declared-order plan"
    );

    // the executed order is visible in the output attribute order...
    let by_declared = q.eval(&db).unwrap();
    let by_reordered = reordered.eval(&db).unwrap();
    let by_pinned = pinned.eval(&db).unwrap();
    assert!(first_executed(&by_declared, "wide.", "narrow."));
    assert!(first_executed(&by_reordered, "narrow.", "wide."));

    // ...yet the keyed results are identical as data: same canonical row
    // ids, equal canonical data keys under every id
    assert_eq!(by_declared.len(), 40, "8 base × 5 wide × 1 narrow");
    assert_eq!(keyed_data(&by_declared), keyed_data(&by_reordered));
    assert_eq!(keyed_data(&by_declared), keyed_data(&by_pinned));

    // the reordered plan also *measures* cheaper, not just estimates
    let (_, s_declared) = q.eval_with_stats(&db).unwrap();
    let (_, s_reordered) = reordered.eval_with_stats(&db).unwrap();
    assert!(
        s_reordered.total_intermediate() < s_declared.total_intermediate(),
        "reordering shrinks intermediates: {} vs {}",
        s_reordered.total_intermediate(),
        s_declared.total_intermediate()
    );
}

#[test]
fn reordering_composes_with_pushdown() {
    let db = skewed_db(8, 5, 1);
    let q = declared_query().filter("tag == 'b3'", Params::new());
    let opt = q.clone().optimize_for(&db);
    let plan = opt.explain();
    // the filter references only base attrs: pushed below both joins,
    // and the joins still swap above it
    assert!(
        depth_of(&plan, "filter") > depth_of(&plan, "narrow"),
        "{plan}"
    );
    assert!(
        depth_of(&plan, "narrow") > depth_of(&plan, "wide"),
        "{plan}"
    );
    assert_eq!(
        keyed_data(&q.eval(&db).unwrap()),
        keyed_data(&opt.eval(&db).unwrap())
    );
}

#[test]
fn three_joins_keep_root_ids_under_every_strategy() {
    // Only a join whose keys somebody can see carries canonical row ids;
    // the two joins below the root (one under a filter) are keyed by
    // emission order, which every optimizer is free to change. The root's
    // ids and data — and what a `limit` over them keeps — must not move.
    let db = fdm_fql::testutil::chain_db_scaled(12, 3);
    let q = Query::scan("base")
        .join("a", "ak", "k")
        .join("c", "ck", "k3")
        .filter_expr(Expr::bin(
            BinOp::Gt,
            Expr::Attr("c.cv".into()),
            Expr::lit(7),
        ))
        .join("b", "a.av", "k2");
    let declared = q.eval(&db).unwrap();
    assert_eq!(declared.len(), (12 - 1) * 3);
    for (key, t) in declared.tuples().unwrap() {
        let id = key.as_list("row id").unwrap();
        let hash = t.fingerprint().unwrap().hash() as i64;
        assert_eq!(id, [Value::Int(hash), Value::Int(0)], "canonical root id");
    }
    let top = q.clone().limit(5).eval(&db).unwrap();
    let mut plans = Vec::new();
    for (name, optimizer) in [
        ("statistics_free", Optimizer::statistics_free()),
        ("default", Optimizer::default()),
    ] {
        let opt = optimizer.optimize(q.clone(), &db);
        assert_eq!(
            keyed_data(&opt.eval(&db).unwrap()),
            keyed_data(&declared),
            "{name}"
        );
        let opt_top = optimizer.optimize(q.clone().limit(5), &db);
        assert_eq!(
            keyed_data(&opt_top.eval(&db).unwrap()),
            keyed_data(&top),
            "limit under {name}"
        );
        plans.push(opt.explain());
    }
    assert!(
        plans.iter().any(|p| *p != plans[0]),
        "the default optimizer really reorders the chain:\n{}",
        plans[0]
    );
}

#[test]
fn optimizer_md_transcript_is_live() {
    // docs/OPTIMIZER.md walks through this exact query; the fenced block
    // between the transcript markers must equal the real tool output, so
    // the doc can never silently go stale.
    let md = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../docs/OPTIMIZER.md"))
        .expect("docs/OPTIMIZER.md exists");
    let begin = md
        .find("<!-- transcript:begin -->")
        .expect("transcript begin marker");
    let end = md.find("<!-- transcript:end -->").expect("end marker");
    let block = &md[begin..end];
    let fence_open = block.find("```text").expect("```text fence") + "```text\n".len();
    let fence_close = block[fence_open..].find("```").expect("closing fence") + fence_open;
    let documented = &block[fence_open..fence_close];

    let db = fdm_fql::testutil::retail_db();
    let orders = db
        .relationship("order")
        .unwrap()
        .to_relation()
        .renamed("orders");
    let db = db.with_relation(orders);
    let q = Query::scan("orders")
        .join("customers", "cid", "cid")
        .filter("date > '2026-02'", Params::new());
    let actual = q.optimize_for(&db).explain_with_cost(&db).unwrap();
    assert_eq!(
        documented, actual,
        "docs/OPTIMIZER.md transcript drifted from real explain_with_cost output"
    );
}

proptest! {
    /// On randomized fan-out-skewed databases, the optimized plan (which
    /// may or may not reorder, depending on the drawn skew) produces
    /// exactly the declared plan's keyed data.
    #[test]
    fn optimized_plans_are_data_identical(
        base_rows in 1i64..16,
        wide_fanout in 1usize..6,
        narrow_per_key in 1usize..4,
        with_filter in any::<bool>(),
    ) {
        let db = skewed_db(base_rows, wide_fanout, narrow_per_key);
        let mut q = declared_query();
        if with_filter {
            q = q.filter("nk > 1", Params::new());
        }
        let opt = q.clone().optimize_for(&db);
        let declared = q.eval(&db).unwrap();
        let optimized = opt.eval(&db).unwrap();
        prop_assert_eq!(
            declared.len(),
            (if with_filter { (base_rows - 1).max(0) } else { base_rows }
                as usize) * wide_fanout * narrow_per_key
        );
        prop_assert_eq!(keyed_data(&declared), keyed_data(&optimized));
    }
}
