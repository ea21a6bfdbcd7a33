//! The data-key fingerprint cache must be **impossible to observe**
//! except as speed: every FQL write path (`update`), every transforming
//! operator (`transform`), and every computed-attribute rebinding must
//! yield tuples whose cached `data_key()` equals a from-scratch
//! `compute_data_key()` — i.e. stale-cache reuse cannot happen, because
//! every mutation constructs a new tuple with an empty cache (see the
//! invalidation contract in `fdm_core::tuple`).
//!
//! The database set operations are pinned by counts, not clocks: `union`
//! computes no data key at all, `intersect`/`minus` compute one only for
//! a key both sides hold, and a warm `intersect`/`minus` reuses the cached
//! fingerprints — its allocation count does not depend on how wide the
//! tuples are. The last pin was mutation-checked by making the set
//! operations' data comparison call `compute_data_key` instead.

use fdm_core::{DatabaseF, FdmError, RelationBuilder, RelationF, TupleF, Value};
use fdm_fql::{
    db_modify_attr, db_update_attr, db_upsert, deep_copy, difference, extend, extend_stored,
    intersect, minus, rename_attrs, union,
};
use fdm_workload::{generate, to_fdm, RetailConfig};
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

/// Every stored tuple's cached data key must agree with an uncached
/// recomputation.
fn assert_caches_fresh(rel: &RelationF, what: &str) {
    for (key, tuple) in rel.tuples().unwrap() {
        assert_eq!(
            tuple.data_key().unwrap(),
            tuple.compute_data_key().unwrap(),
            "{what}: stale fingerprint at key {key}"
        );
    }
}

fn shop() -> DatabaseF {
    to_fdm(&generate(&RetailConfig::small()))
}

#[test]
fn update_paths_recompute_fingerprints() {
    let db = shop();
    let customers = db.relation("customers").unwrap();
    // warm every cache first, so staleness would be observable
    assert_caches_fresh(&customers, "warm-up");
    let old_dk = customers
        .lookup(&Value::Int(1))
        .unwrap()
        .data_key()
        .unwrap();

    // customers[1]['age'] = 99
    let db2 = db_update_attr(&db, "customers", &Value::Int(1), "age", 99).unwrap();
    let updated = db2.relation("customers").unwrap();
    let t = updated.lookup(&Value::Int(1)).unwrap();
    assert_ne!(t.data_key().unwrap(), old_dk, "update must change the key");
    assert_caches_fresh(&updated, "db_update_attr");

    // read-modify-write
    let db3 = db_modify_attr(&db2, "customers", &Value::Int(1), "age", |v| {
        v.add(&Value::Int(1))
    })
    .unwrap();
    assert_caches_fresh(&db3.relation("customers").unwrap(), "db_modify_attr");

    // whole-tuple replacement
    let db4 = db_upsert(
        &db3,
        "customers",
        Value::Int(1),
        TupleF::builder("c1")
            .attr("name", "Replaced")
            .attr("age", 1)
            .attr("state", "ZZ")
            .build(),
    )
    .unwrap();
    let t4 = db4
        .relation("customers")
        .unwrap()
        .lookup(&Value::Int(1))
        .unwrap();
    assert_eq!(t4.data_key().unwrap(), t4.compute_data_key().unwrap());
    assert_ne!(t4.data_key().unwrap(), old_dk);
}

#[test]
fn transform_paths_recompute_fingerprints() {
    let db = shop();
    let customers = db.relation("customers").unwrap();
    assert_caches_fresh(&customers, "warm-up");

    // extend: adds a *computed* attribute — the rebuilt tuple's key must
    // include it
    let extended = extend(&customers, "age_months", |t| {
        t.get("age")?.mul(&Value::Int(12))
    })
    .unwrap();
    assert_caches_fresh(&extended, "extend");
    let (k, t) = extended.tuples().unwrap().remove(0);
    let base = customers.lookup(&k).unwrap();
    assert_ne!(
        t.data_key().unwrap(),
        base.data_key().unwrap(),
        "computed attribute participates in the key"
    );

    // extend_stored
    let stored = extend_stored(&customers, "flag", |_| Ok(Value::Bool(true))).unwrap();
    assert_caches_fresh(&stored, "extend_stored");

    // rename_attrs: the attribute *name* is part of the canonical key
    let renamed = rename_attrs(&customers, &[("age", "years")]).unwrap();
    assert_caches_fresh(&renamed, "rename_attrs");
    let (k, t) = renamed.tuples().unwrap().remove(0);
    assert_ne!(
        t.data_key().unwrap(),
        customers.lookup(&k).unwrap().data_key().unwrap()
    );
}

#[test]
fn computed_attr_rebinding_recomputes() {
    let rel = RelationF::new("r", &["id"])
        .insert(
            Value::Int(1),
            TupleF::builder("t")
                .attr("x", 2)
                .computed("doubled", |t| t.get("x")?.mul(&Value::Int(2)))
                .build(),
        )
        .unwrap();
    let t = rel.lookup(&Value::Int(1)).unwrap();
    let dk1 = t.data_key().unwrap(); // caches [doubled=4, x=2]
                                     // rebinding x: the computed attribute now evaluates differently
    let rel2 = rel.update_attr(&Value::Int(1), "x", 5).unwrap();
    let t2 = rel2.lookup(&Value::Int(1)).unwrap();
    assert_eq!(t2.data_key().unwrap(), t2.compute_data_key().unwrap());
    assert_ne!(t2.data_key().unwrap(), dk1, "doubled=10 now");
    assert_eq!(t2.get("doubled").unwrap(), Value::Int(10));
}

#[test]
fn setops_see_fresh_fingerprints_after_mutation() {
    // The fig9 flow with caches deliberately warmed at every step: if any
    // setop consumed a stale fingerprint, the differential would miss the
    // change or invent one.
    let db = shop();
    let copy = deep_copy(&db).unwrap();
    for rel in ["customers", "products"] {
        assert_caches_fresh(&copy.relation(rel).unwrap(), "deep_copy output");
    }
    // identical copy: warm both sides' caches through a full differential
    assert!(difference(&db, &copy).unwrap().is_empty());

    // now mutate one attribute of one tuple in the copy
    let copy2 = db_update_attr(&copy, "customers", &Value::Int(7), "age", 999).unwrap();
    let diff = difference(&db, &copy2).unwrap();
    let added = diff.relation("customers.added").unwrap();
    let removed = diff.relation("customers.removed").unwrap();
    assert_eq!(added.len(), 1, "exactly the mutated tuple appears");
    assert_eq!(removed.len(), 1);
    assert_eq!(
        added.lookup(&Value::Int(7)).unwrap().get("age").unwrap(),
        Value::Int(999)
    );

    // intersect/minus agree: the mutated key is in neither intersection side
    let i = intersect(&db, &copy2).unwrap();
    assert!(i
        .relation("customers")
        .unwrap()
        .lookup(&Value::Int(7))
        .is_none());
    let m = minus(&db, &copy2).unwrap();
    assert_eq!(m.relation("customers").unwrap().len(), 1);

    // and un-mutating restores emptiness (no stale "changed" verdict)
    let back = db_update_attr(
        &copy2,
        "customers",
        &Value::Int(7),
        "age",
        db.relation("customers")
            .unwrap()
            .lookup(&Value::Int(7))
            .unwrap()
            .get("age")
            .unwrap(),
    )
    .unwrap();
    assert!(difference(&db, &back).unwrap().is_empty());
}

#[test]
fn eq_data_matches_materialized_comparison() {
    // eq_data now runs on fingerprints; pin it against the definitional
    // comparison (sorted materialized pairs) on a real workload.
    let db = shop();
    let customers = db.relation("customers").unwrap();
    let shifted = db_update_attr(&db, "customers", &Value::Int(3), "age", 0)
        .unwrap()
        .relation("customers")
        .unwrap()
        .clone();
    for (key, a) in customers.tuples().unwrap() {
        let b = shifted.lookup(&key).unwrap();
        let reference = {
            let mut pa = a.materialize().unwrap();
            let mut pb = b.materialize().unwrap();
            pa.sort_by(|x, y| x.0.cmp(&y.0));
            pb.sort_by(|x, y| x.0.cmp(&y.0));
            pa == pb
        };
        assert_eq!(a.eq_data(&b), reference, "diverges at key {key}");
    }
}

/// A one-relation database `r` over `keys`: each tuple has a stored `x`
/// and a computed `y` that fails when `failing` holds for its key.
fn with_failing(keys: &[i64], failing: impl Fn(i64) -> bool) -> DatabaseF {
    let mut b = RelationBuilder::new("r", &["k"]);
    for &k in keys {
        let fails = failing(k);
        let t = TupleF::builder("t").attr("x", k).computed("y", move |_| {
            if fails {
                Err(FdmError::Other(format!("no y for {k}")))
            } else {
                Ok(Value::Int(2 * k))
            }
        });
        b.push(Value::Int(k), t.build());
    }
    DatabaseF::new("db").with_relation(b.build().unwrap())
}

#[test]
fn union_computes_no_data_key() {
    // every tuple on both sides fails to evaluate `y`, and the keys
    // overlap: union decides by key alone
    let a = with_failing(&[1, 2, 3], |_| true);
    let b = with_failing(&[2, 3, 4], |_| true);
    let u = union(&a, &b).expect("union never evaluates an attribute");
    assert_eq!(
        u.relation("r").unwrap().stored_keys(),
        (1..=4).map(Value::Int).collect::<Vec<_>>()
    );
    // the same inputs do need data keys for a shared key
    assert!(minus(&a, &b).is_err());
    assert!(intersect(&a, &b).is_err());
}

#[test]
fn intersect_and_minus_compute_data_keys_only_for_shared_keys() {
    // key 5 exists only in `a`, key 6 only in `b`; both fail to evaluate
    let a = with_failing(&[1, 2, 3, 4, 5], |k| k == 5);
    let b = with_failing(&[1, 2, 3, 4, 6], |k| k == 6);
    let i = intersect(&a, &b).expect("unshared failing keys are never keyed");
    assert_eq!(i.relation("r").unwrap().len(), 4);
    let ab = minus(&a, &b).expect("a − b");
    assert_eq!(ab.relation("r").unwrap().stored_keys(), vec![Value::Int(5)]);
    let ba = minus(&b, &a).expect("b − a");
    assert_eq!(ba.relation("r").unwrap().stored_keys(), vec![Value::Int(6)]);
    // a failing tuple under a shared key does surface
    let c = with_failing(&[1, 2, 3, 4, 5], |k| k == 2);
    assert!(intersect(&a, &c).is_err());
    assert!(minus(&a, &c).is_err());
}

/// `rows` tuples of `width` attributes: even slots stored, odd slots
/// computed — each evaluation formats a fresh string, so a data key
/// recomputed from scratch allocates once more per computed slot.
fn wide(width: usize, rows: i64) -> DatabaseF {
    let mut b = RelationBuilder::new("w", &["k"]);
    for k in 0..rows {
        let mut t = TupleF::builder("w");
        for slot in 0..width {
            let name = format!("a{slot:02}");
            t = if slot % 2 == 0 {
                t.attr(name, k)
            } else {
                t.computed(name, move |_| Ok(Value::str(format!("{k}/{slot}"))))
            };
        }
        b.push(Value::Int(k), t.build());
    }
    DatabaseF::new("wide").with_relation(b.build().unwrap())
}

#[test]
fn warm_setops_reuse_cached_fingerprints() {
    let warm_allocations = |width: usize| {
        // two separate builds: equal data under every key, no shared
        // subtree or tuple for the merges to skip
        let (a, b) = (wide(width, 64), wide(width, 64));
        assert_eq!(intersect(&a, &b).unwrap().relation("w").unwrap().len(), 64);
        assert!(minus(&a, &b).unwrap().relation("w").unwrap().is_empty());
        let (_, i) = allocations(|| intersect(&a, &b).unwrap());
        let (_, m) = allocations(|| minus(&a, &b).unwrap());
        (i, m)
    };
    assert_eq!(
        warm_allocations(4),
        warm_allocations(16),
        "(intersect, minus) allocations at 4 vs 16 attributes per tuple"
    );
}
