//! The parallel execution layer must be **observably invisible**: every
//! parallelized FQL operator has to produce byte-identical output (same
//! keys in the same order, same materialized attributes, same errors)
//! whether it runs on one thread or many.
//!
//! Since PR 21 only `extend`/`extend_stored` and `deep_copy_relation` keep
//! a chunked fork (ROADMAP item 1 owns their verdict). Filter, key
//! inlining and the plan pipeline run on the sequential physical executor,
//! pinned against a materializing reference in `physical_plan.rs`;
//! `group` and `aggregate` are sequential too, and their checks below stay
//! as thread-count invariance pins until the layer itself goes.
//!
//! Thread count and the sequential cutoff are environment-driven
//! (`THREADS`, `FDM_PAR_CUTOFF` — see `fdm_core::par`), so each check runs
//! the same operator under `THREADS=1` (the sequential path) and
//! `THREADS=4` with a tiny cutoff (the parallel path, forced even on the
//! modest retail workload) and compares fingerprints. CI additionally runs
//! this whole suite under both `THREADS` settings to catch nondeterminism
//! at the process level.

use fdm_core::{DatabaseF, RelationF, Value};
use fdm_fql::prelude::*;
use fdm_workload::{generate, to_fdm, RetailConfig};
use std::sync::Mutex;

/// Serializes environment mutation across the test threads of this binary.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the given thread count and a cutoff low enough that the
/// retail workload takes the parallel path, restoring the environment
/// afterwards.
fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved_t = std::env::var("THREADS").ok();
    let saved_c = std::env::var("FDM_PAR_CUTOFF").ok();
    std::env::set_var("THREADS", threads);
    std::env::set_var("FDM_PAR_CUTOFF", "16");
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

fn shop() -> DatabaseF {
    to_fdm(&generate(&RetailConfig {
        customers: 400,
        products: 60,
        orders: 1500,
        product_skew: 0.8,
        inactive_customers: 0.2,
        seed: 20260730,
    }))
}

/// A relation's full observable content: keys in iteration order, each
/// with the tuple's materialized attributes in stored order (stricter
/// than the bulk_equivalence fingerprint — attribute order must match
/// too).
fn fingerprint(rel: &RelationF) -> Vec<(Value, Vec<(String, Value)>)> {
    rel.tuples()
        .unwrap()
        .into_iter()
        .map(|(k, t)| {
            let attrs: Vec<(String, Value)> = t
                .materialize()
                .unwrap()
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect();
            (k, attrs)
        })
        .collect()
}

/// Runs `op` under `THREADS=1` and `THREADS=4` and asserts byte-identical
/// relation output.
fn assert_par_equal(what: &str, op: impl Fn() -> RelationF) {
    let seq = with_threads("1", &op);
    let par = with_threads("4", &op);
    assert_eq!(seq.len(), par.len(), "{what}: cardinality");
    assert_eq!(
        fingerprint(&seq),
        fingerprint(&par),
        "{what}: keys, order, or tuple data diverge between 1 and 4 threads"
    );
}

#[test]
fn extend_parallel_matches_sequential() {
    let db = shop();
    let customers = db.relation("customers").unwrap();
    assert_par_equal("extend (computed attr)", || {
        extend(&customers, "age_in_months", |t| {
            t.get("age")?.mul(&Value::Int(12))
        })
        .unwrap()
    });
    assert_par_equal("extend_stored", || {
        extend_stored(&customers, "seniority", |t| {
            t.get("age")?.mul(&Value::Int(100))
        })
        .unwrap()
    });
}

#[test]
fn schema_join_parallel_matches_sequential() {
    let db = shop();
    assert_par_equal("join (schema-driven)", || join(&db).unwrap());
}

#[test]
fn join_on_parallel_matches_sequential() {
    let db = shop();
    let order_rel = db.relationship("order").unwrap().to_relation();
    let db2 = db.with_relation(order_rel.renamed("order_rel"));
    assert_par_equal("join_on (explicit conditions)", || {
        join_on(
            &db2,
            &[
                JoinOn::new("customers", "cid", "order_rel", "cid"),
                JoinOn::new("order_rel", "pid", "products", "pid"),
            ],
        )
        .unwrap()
    });
}

#[test]
fn duplicate_key_error_is_identical() {
    // A multi-body relation (secondary index) enumerates duplicate keys;
    // rebuilding it as a unique relation must fail with the *same*
    // DuplicateKey error on both paths — including duplicates that
    // straddle a chunk boundary.
    let db = shop();
    let customers = db.relation("customers").unwrap();
    let by_age = customers.index_by("age").unwrap();
    let op = || filter_fn(&by_age, |_| Ok(true)).unwrap_err();
    let seq = with_threads("1", op);
    let par = with_threads("4", op);
    assert!(
        matches!(seq, fdm_core::FdmError::DuplicateKey { .. }),
        "sequential path must reject duplicate keys: {seq}"
    );
    assert_eq!(
        seq.to_string(),
        par.to_string(),
        "parallel path must report the same duplicate key"
    );
}

#[test]
fn deep_copy_parallel_matches_sequential() {
    let db = shop();
    // relation granularity: the chunked copy must be byte-identical
    let customers = db.relation("customers").unwrap();
    assert_par_equal("deep_copy_relation", || {
        fdm_fql::deep_copy_relation(&customers).unwrap()
    });
    // database granularity: every relation of the copy agrees
    let seq = with_threads("1", || deep_copy(&db).unwrap());
    let par = with_threads("4", || deep_copy(&db).unwrap());
    for name in ["customers", "products"] {
        assert_eq!(
            fingerprint(&seq.relation(name).unwrap()),
            fingerprint(&par.relation(name).unwrap()),
            "deep_copy diverges on {name}"
        );
    }
}

#[test]
fn group_parallel_matches_sequential() {
    let db = shop();
    let customers = db.relation("customers").unwrap();
    // the Groups' underlying multi relation carries keys, member sets,
    // and within-group order — all must match
    assert_par_equal("group by age", || {
        group(&customers, &["age"]).unwrap().as_relation().clone()
    });
    assert_par_equal("group by (state, age)", || {
        group(&customers, &["state", "age"])
            .unwrap()
            .as_relation()
            .clone()
    });
    assert_par_equal("group_fn (decade)", || {
        group_fn(&customers, |t| {
            Ok(Value::Int(t.get("age")?.as_int("age")? / 10))
        })
        .unwrap()
        .as_relation()
        .clone()
    });
}

#[test]
fn aggregate_parallel_matches_sequential() {
    let db = shop();
    let customers = db.relation("customers").unwrap();
    assert_par_equal("aggregate over age groups", || {
        let groups = group(&customers, &["age"]).unwrap();
        aggregate(
            &groups,
            &[
                ("count", AggSpec::Count),
                ("min_age", AggSpec::Min("age".into())),
                ("avg_age", AggSpec::Avg("age".into())),
            ],
        )
        .unwrap()
    });
    assert_par_equal("group_and_aggregate (state, age)", || {
        group_and_aggregate(
            &customers,
            &["state", "age"],
            &[("c", AggSpec::Count), ("s", AggSpec::Sum("age".into()))],
        )
        .unwrap()
    });
}

#[test]
fn group_error_is_identical_across_threads() {
    // a missing grouping attribute must surface the same first error on
    // both paths
    let db = shop();
    let customers = db.relation("customers").unwrap();
    let op = || group(&customers, &["nope"]).unwrap_err();
    let seq = with_threads("1", op);
    let par = with_threads("4", op);
    assert_eq!(seq.to_string(), par.to_string());
}

#[test]
fn setops_merge_path_agrees_across_threads() {
    // DB-level setops are merge-based (not thread-chunked), but they sit
    // downstream of parallelized operators; pin the whole pipeline.
    let db = shop();
    let copy = deep_copy(&db).unwrap();
    let diff = with_threads("4", || difference(&db, &copy).unwrap());
    assert!(diff.is_empty(), "identical copies diff to empty: {diff:?}");
    let removed_one = {
        let customers = copy.relation("customers").unwrap();
        let first_key = customers.stored_keys().remove(0);
        let shrunk = customers.delete(&first_key).unwrap();
        copy.with_entry("customers", fdm_core::FnValue::from(shrunk))
    };
    let d1 = with_threads("1", || difference(&db, &removed_one).unwrap());
    let d4 = with_threads("4", || difference(&db, &removed_one).unwrap());
    let r1 = d1.relation("customers.removed").unwrap();
    let r4 = d4.relation("customers.removed").unwrap();
    assert_eq!(r1.len(), 1);
    assert_eq!(fingerprint(&r1), fingerprint(&r4));
}
