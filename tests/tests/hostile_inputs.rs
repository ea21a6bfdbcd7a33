//! Deep inputs never abort the process.
//!
//! Decoding a WAL payload, planning, evaluating, cloning, formatting and
//! dropping a query, and every walk of a predicate, recurse once per
//! nesting level. Without a bound, a deep enough input overflows the
//! stack, and a stack overflow is not a panic: it aborts the whole
//! process. Each case here runs on a thread with a 2 MiB stack,
//! the default for test threads, and asserts that a deep input comes back
//! `Ok` or as a typed `Err`, and that an input just under each bound still
//! decodes or evaluates.
//!
//! The depths come from the vendored `proptest` shim. Run the suite in a
//! release build as well: frame sizes differ between the two profiles,
//! and so does integer overflow, which the last case here meets at the
//! largest key.

use fdm_core::{DatabaseF, FdmError, RelationF, TupleF, Value};
use fdm_durability::codec::MAX_NESTING;
use fdm_durability::{decode_ops, write_checkpoint, DurabilityConfig, DurabilityError, Wal};
use fdm_expr::parser::MAX_DEPTH;
use fdm_expr::Params;
use fdm_fql::plan::MAX_PLAN_DEPTH;
use fdm_fql::Query;
use fdm_txn::Store;
use proptest::prelude::*;
use std::path::PathBuf;

/// Runs `f` on a fresh thread with a 2 MiB stack and hands back its result.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn a test thread")
        .join()
        .expect("the case panicked")
}

/// A `decode_ops` payload of one delete whose key is `lists` one-element
/// lists nested in each other around a unit.
fn nested_key_payload(lists: usize) -> Vec<u8> {
    let mut p = Vec::with_capacity(12 + 5 * lists);
    p.extend_from_slice(&1u32.to_le_bytes()); // one op
    p.push(1); // a delete
    p.extend_from_slice(&1u32.to_le_bytes());
    p.push(b'r'); // of relation "r"
    for _ in 0..lists {
        p.push(5); // a list
        p.extend_from_slice(&1u32.to_le_bytes()); // of one item
    }
    p.push(0); // the unit at the bottom
    p
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdm-hostile-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One relation `r` keyed by `k`, with `v` = `k` for `k` in `0..10`.
fn small_db() -> DatabaseF {
    let mut r = RelationF::new("r", &["k"]);
    for k in 0..10 {
        let t = TupleF::builder("t").attr("k", k).attr("v", k).build();
        r = r.insert(Value::Int(k), t).unwrap();
    }
    DatabaseF::new("d").with_relation(r)
}

/// `depth` operators built through the public builders: a scan under
/// `depth - 1` filters.
fn built_chain(depth: usize) -> Query {
    let mut q = Query::scan("r");
    for i in 1..depth {
        q = q.filter("v >= $i", Params::new().set("i", (i % 3) as i64));
    }
    q
}

/// `depth` operators built from the variants directly, which no builder
/// bounds: a scan under `depth - 1` limits.
fn direct_chain(depth: usize) -> Query {
    let mut q = Query::scan("r");
    for _ in 1..depth {
        q = Query::Limit {
            input: Box::new(q),
            k: 5,
        };
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn a_deep_payload_is_corrupt(lists in MAX_NESTING..100_000usize) {
        let err = on_small_stack(move || decode_ops(&nested_key_payload(lists)).unwrap_err());
        prop_assert!(matches!(err, DurabilityError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn a_payload_under_the_bound_decodes(lists in 0..MAX_NESTING) {
        let ops = on_small_stack(move || decode_ops(&nested_key_payload(lists)).map(|o| o.len()));
        prop_assert_eq!(ops, Ok(1));
    }

    #[test]
    fn a_deep_built_plan_is_invalid(depth in 3_000..20_000usize) {
        on_small_stack(move || {
            let db = small_db();
            let q = built_chain(depth);
            assert!(q.eval(&db).is_err());
            assert!(q.explain().lines().count() <= MAX_PLAN_DEPTH, "the builders bound it");
            let planned = q.optimize_for(&db);
            assert!(planned.eval(&db).is_err());
            assert!(!planned.explain().is_empty());
            // one operator past the limit is already refused
            let past = built_chain(MAX_PLAN_DEPTH + 1);
            assert!(matches!(past, Query::Invalid { .. }), "{}", past.explain());
        });
    }

    #[test]
    fn a_deep_direct_plan_is_refused(depth in MAX_PLAN_DEPTH + 1..200_000usize) {
        on_small_stack(move || {
            let db = small_db();
            let q = direct_chain(depth);
            let too_deep = |r: Result<_, FdmError>| {
                matches!(r, Err(FdmError::PlanTooDeep { limit }) if limit == MAX_PLAN_DEPTH)
            };
            assert!(too_deep(q.eval(&db).map(|_| ())));
            assert!(too_deep(q.eval_with_stats(&db).map(|_| ())));
            assert!(too_deep(q.estimated_rows(&db).map(|_| ())));
            let planned = q.optimize_for(&db);
            assert!(matches!(planned, Query::Invalid { .. }), "{}", planned.explain());
            assert!(planned.eval(&db).is_err());
        });
    }

    #[test]
    fn a_plan_at_the_bound_evaluates(depth in 1..=MAX_PLAN_DEPTH) {
        on_small_stack(move || {
            let db = small_db();
            let q = built_chain(depth);
            assert_eq!(q.explain().lines().count(), depth);
            let want = q.eval(&db).unwrap();
            let planned = q.optimize_for(&db);
            assert_eq!(planned.eval(&db).unwrap().len(), want.len());
            let limited = if depth > 1 { 5 } else { 10 };
            assert_eq!(direct_chain(depth).eval(&db).unwrap().len(), limited);
        });
    }

    #[test]
    fn a_deep_plan_drops(depth in 1..200_000usize) {
        on_small_stack(move || drop(direct_chain(depth)));
    }
}

/// The measured case: 100,000 nested lists in one 500 KB payload.
#[test]
fn a_hundred_thousand_nested_lists_are_corrupt() {
    let err = on_small_stack(|| decode_ops(&nested_key_payload(100_000)).unwrap_err());
    assert!(matches!(err, DurabilityError::Corrupt { .. }), "{err}");
}

/// ...and the same payload as a CRC-valid WAL record: recovery decodes
/// every record whose CRC holds, so opening the store must refuse it
/// rather than abort.
#[test]
fn a_store_whose_wal_holds_a_deep_record_does_not_open() {
    let dir = scratch("deep-record");
    let cfg = DurabilityConfig::new(&dir);
    write_checkpoint(&dir, 0, &small_db()).unwrap();
    let wal = Wal::create(&cfg, 1).unwrap();
    if wal.enqueue(1, &nested_key_payload(100_000)).unwrap() {
        wal.complete(1).unwrap();
    }
    drop(wal);
    let opened = on_small_stack({
        let dir = dir.clone();
        move || Store::open(&dir).map(|_| ())
    });
    assert!(
        matches!(opened, Err(DurabilityError::Corrupt { .. })),
        "{opened:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The measured plan cases: 3,000 chained filters and a 200,000-deep plan.
#[test]
fn the_measured_plans_answer() {
    on_small_stack(|| {
        let db = small_db();
        let q = built_chain(3_000);
        assert!(q.eval(&db).is_err());
        assert!(q.clone().optimize_for(&db).eval(&db).is_err());
        assert!(q.explain().len() < 100_000);
        drop(built_chain(200_000));
        let deep = direct_chain(200_000);
        assert!(deep.eval(&db).is_err());
        assert!(matches!(deep.optimize_for(&db), Query::Invalid { .. }));
    });
}

/// A predicate as deep as the parser allows: `v >= 0` under a
/// left-leaning chain of `and`s, one level per `and`.
fn bound_deep_predicate() -> String {
    let mut src = String::from("v >= 0");
    for _ in 2..MAX_DEPTH {
        src.push_str(" and v >= 0");
    }
    src
}

/// A full-depth plan whose predicates each sit at the parser bound:
/// filter fusion must not build one predicate deeper than the parser
/// would accept.
#[test]
fn bound_deep_filters_fuse_within_the_parser_bound() {
    on_small_stack(|| {
        let db = small_db();
        let src = bound_deep_predicate();
        assert!(
            fdm_expr::parse(&src).is_ok(),
            "the predicate is at the bound"
        );
        let mut q = Query::scan("r");
        for _ in 1..MAX_PLAN_DEPTH {
            q = q.filter(&src, Params::new());
        }
        assert_eq!(q.explain().lines().count(), MAX_PLAN_DEPTH);
        let planned = q.optimize_for(&db);
        let mut at = &planned;
        while let Query::Filter { input, pred } = at {
            assert!(
                pred.depth() <= MAX_DEPTH,
                "a fused predicate is {} deep",
                pred.depth()
            );
            at = input;
        }
        assert!(matches!(at, Query::Scan { .. }), "{}", planned.explain());
        assert_eq!(planned.eval(&db).unwrap().len(), 10);
    });
}

/// A plan built from the variants directly clones and formats in a loop.
#[test]
fn a_deep_direct_plan_clones_and_formats() {
    on_small_stack(|| {
        let q = direct_chain(200_000);
        let text = format!("{:?}", q.clone());
        assert_eq!(text.lines().count(), 200_000, "one operator per line");
        assert_eq!(text, format!("{q:?}"));
    });
}

/// An auto id after the largest integer key is a typed error, not a
/// panic (debug) nor a key wrapped below every other (release): through
/// the relation, through FQL's `db_add` and through a transaction, each
/// leaving the relation as it was.
#[test]
fn an_auto_id_past_the_largest_key_is_refused() {
    let t = || TupleF::builder("t").attr("v", 0).build();
    const LAST: Value = Value::Int(i64::MAX);
    let rel = RelationF::new("r", &["k"]).insert(LAST, t()).unwrap();
    let refused = |e: FdmError| matches!(e, FdmError::ConstraintViolation { .. });
    assert!(refused(rel.insert_auto(t()).unwrap_err()));
    assert_eq!(rel.stored_keys(), [LAST]);
    let db = DatabaseF::new("db").with_relation(rel);
    assert!(refused(fdm_fql::db_add(&db, "r", t()).unwrap_err()));
    assert_eq!(db.relation("r").unwrap().stored_keys(), [LAST]);
    let store = Store::new(db);
    let mut txn = store.begin();
    assert!(refused(txn.add("r", t()).unwrap_err()));
    assert_eq!(txn.write_count(), 0);
    assert_eq!(txn.db().relation("r").unwrap().stored_keys(), [LAST]);
}
