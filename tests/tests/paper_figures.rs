//! Every artifact of the paper — the §2.2 table and Figures 1–11 — as an
//! executable, asserted scenario. This is the reproduction's ground
//! truth: if a figure's semantics drifted, a test here breaks.
//!
//! The second half, "shapes at scale", checks the shape each figure
//! claims on generated retail data, counting rows, cells, NULLs and
//! allocated bytes — never time.

use fdm_core::{
    apply1, apply_ops, DatabaseF, Domain, FdmError, FnValue, Function, Name, Op, Participant,
    RelationBuilder, RelationF, RelationshipF, SharedDomain, TupleF, Value, ValueType,
};
use fdm_expr::Params;
use fdm_fql::prelude::*;
use fdm_fql::testutil::retail_db;
use fdm_fql::{aggregate, cube, group, Query};
use fdm_relational::{
    cube as rel_cube, group_by, grouping_sets as rel_grouping_sets, outer_join, select, Agg, Cell,
    GroupingSet, OuterSide,
};
use fdm_txn::Store;
use fdm_workload::{generate, to_fdm, to_relational, RetailConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as CountCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ------------------------------------------------ counting allocator

thread_local! {
    /// Bytes this thread has allocated so far (tests run on threads of
    /// their own); a `realloc` counts the bytes it grew by.
    static ALLOCATED: CountCell<usize> = const { CountCell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local `Cell`
// with a const initializer and no destructor, so touching it neither
// allocates nor can run during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + layout.size()));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + new_size.saturating_sub(layout.size())));
        // SAFETY: as for `dealloc`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the bytes it allocated on this
/// thread.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATED.with(CountCell::get);
    let out = f();
    (out, ALLOCATED.with(CountCell::get) - before)
}

/// §2.2 table: tuple, relation, database, set-of-databases are all the
/// same construct — a function — and can be called uniformly.
#[test]
fn t1_uniform_abstraction_across_levels() {
    let t1 = TupleF::builder("t1")
        .attr("name", "Alice")
        .attr("foo", 12)
        .build();
    let r1 = RelationF::new("R1", &["bar"])
        .insert(Value::Int(1), t1.clone())
        .unwrap();
    let db = DatabaseF::new("DB").with_relation(r1.clone());
    let fleet = DatabaseF::new("fleet").with_entry("DB", FnValue::from(db.clone()));

    // all four levels go through the SAME trait with the SAME call shape:
    let levels: Vec<(&dyn Function, Value)> = vec![
        (&t1, Value::str("foo")),
        (&r1, Value::Int(1)),
        (&db, Value::str("R1")),
        (&fleet, Value::str("DB")),
    ];
    for (f, arg) in levels {
        assert_eq!(f.arity(), 1);
        assert!(f.domain().contains(&arg));
        assert!(
            apply1(f, &arg).is_ok(),
            "{} must be defined at {arg}",
            f.fn_name()
        );
    }
    // and the chain composes: fleet('DB')('R1')(1)('foo') = 12
    let db_v = apply1(&fleet, &Value::str("DB")).unwrap();
    let r_v = db_v
        .as_fn("db")
        .unwrap()
        .apply(&[Value::str("R1")])
        .unwrap();
    let t_v = r_v.as_fn("rel").unwrap().apply(&[Value::Int(1)]).unwrap();
    let foo = t_v
        .as_fn("tuple")
        .unwrap()
        .apply(&[Value::str("foo")])
        .unwrap();
    assert_eq!(foo, Value::Int(12));
}

/// Fig. 1: the ER schema compiled to FDM has the relationship function
/// `order(cid, pid)` whose parameters share the entity key domains.
#[test]
fn f1_erm_vs_fdm() {
    let schema = fdm_erm::retail_schema();
    let db = fdm_erm::compile_to_fdm(&schema);
    let order = db.relationship("order").unwrap();
    assert_eq!(order.arity_k(), 2);
    assert!(order.participants()[0]
        .domain
        .same_as(db.shared_domain("customers.cid").unwrap()));
    assert!(order.participants()[1]
        .domain
        .same_as(db.shared_domain("products.pid").unwrap()));

    // one schema, two targets: 2 relations + 1 relationship function over
    // 2 shared domains, against 3 tables + 2 FK constraints
    assert_eq!(db.len(), 3);
    assert_eq!(db.relations().count(), 2);
    assert_eq!(db.relationships().count(), 1);
    assert_eq!(db.shared_domains().count(), 2);

    let rel = fdm_erm::compile_to_relational(&schema);
    assert_eq!(rel.tables.len(), 3);
    assert!(rel.table("order").is_some(), "classical: junction table");
    assert_eq!(
        rel.foreign_keys.len(),
        2,
        "classical: FKs as separate metadata"
    );
}

/// Fig. 2: a k-ary relationship function over arbitrary functions.
#[test]
fn f2_relationship_function_general_idea() {
    let dx = SharedDomain::new("x", Domain::Typed(ValueType::Int));
    let dy = SharedDomain::new("y", Domain::Typed(ValueType::Int));
    let dz = SharedDomain::new("z", Domain::Typed(ValueType::Int));
    let rf = RelationshipF::new(
        "rf",
        vec![
            Participant::new("fx", "x", dx),
            Participant::new("fy", "y", dy),
            Participant::new("fz", "z", dz),
        ],
    )
    .insert_link(&[Value::Int(1), Value::Int(2), Value::Int(3)])
    .unwrap();
    assert!(rf.relates(&[Value::Int(1), Value::Int(2), Value::Int(3)]));
    assert!(!rf.relates(&[Value::Int(1), Value::Int(2), Value::Int(4)]));
    assert_eq!(rf.arity(), 3);
}

/// Fig. 3: a relationship between a *database* and a relation —
/// `is_accessed_by(rel_name, uid)` — inexpressible in classical ERM.
#[test]
fn f3_relationship_between_database_and_relation() {
    let db = retail_db();
    let users = RelationF::new("users", &["uid"])
        .insert(
            Value::Int(100),
            TupleF::builder("u").attr("login", "jens").build(),
        )
        .unwrap();
    // participants: the DATABASE function (keyed by rel_name) and users
    let rel_name_dom = SharedDomain::new("rel_name", Domain::Typed(ValueType::Str));
    let uid_dom = SharedDomain::new("uid", Domain::Typed(ValueType::Int));
    let accessed = RelationshipF::new(
        "is_accessed_by",
        vec![
            Participant::new("DB", "rel_name", rel_name_dom),
            Participant::new("users", "uid", uid_dom),
        ],
    )
    .insert(
        &[Value::str("customers"), Value::Int(100)],
        TupleF::builder("a").attr("date", "2026-06-12").build(),
    )
    .unwrap();
    assert!(accessed.relates(&[Value::str("customers"), Value::Int(100)]));
    // the relationship points at the RELATION (an entry of the DB
    // function), not at metadata: we can follow it
    let rel_v = apply1(&db, &Value::str("customers")).unwrap();
    let rel = rel_v.as_fn("entry").unwrap().as_relation().unwrap();
    assert_eq!(rel.len(), 3);
    // and both participants + the relationship can live in one database
    let db2 = db.with_relation(users).with_relationship(accessed);
    assert!(db2.relationship("is_accessed_by").is_ok());
}

/// Fig. 4a: six filter costumes, one semantics (details per costume are
/// unit-tested in fdm-fql; here we assert the cross-crate path).
#[test]
fn f4a_filter_costumes() {
    let db = retail_db();
    let customers = db.relation("customers").unwrap();
    let by_expr = filter_expr(&customers, "age>$foo", Params::new().set("foo", 42)).unwrap();
    let by_fn = filter_fn(&customers, |t| Ok(t.get("age")?.as_int("age")? > 42)).unwrap();
    let by_kwargs = filter_kwargs(&customers, &[("age__gt", Value::Int(42))]).unwrap();
    assert_eq!(by_expr.len(), 2);
    assert_eq!(by_fn.len(), by_expr.len());
    assert_eq!(by_kwargs.len(), by_expr.len());
}

/// Fig. 4b/4c: group → DB of relation functions; aggregate; having.
#[test]
fn f4bc_group_aggregate_having() {
    let db = retail_db();
    let customers = db.relation("customers").unwrap();
    let groups = group(&customers, &["age"]).unwrap();
    // "a DB of relation functions representing age_groups"
    let as_db = groups.to_database();
    assert_eq!(as_db.len(), 3, "ages 30, 43, 55");
    let aggregates = aggregate(&groups, &[("count", AggSpec::Count)]).unwrap();
    let large = filter_expr(&aggregates, "count > $n", Params::new().set("n", 0)).unwrap();
    assert_eq!(large.len(), 3);
    let fused = group_and_aggregate(&customers, &["age"], &[("count", AggSpec::Count)]).unwrap();
    assert_eq!(fused.len(), aggregates.len());
}

/// Fig. 5: subdatabase + reduce — the result is a database with the
/// input's schema, holding only participating tuples.
#[test]
fn f5_subdatabase_reduce() {
    let db = retail_db();
    let sub = subdatabase(&db, &["order", "products", "customers"]);
    let reduced = reduce_db(&sub).unwrap();
    assert_eq!(
        reduced.relation("customers").unwrap().len(),
        2,
        "Carol gone"
    );
    assert_eq!(
        reduced.relation("products").unwrap().len(),
        2,
        "webcam gone"
    );
    assert_eq!(reduced.relationship("order").unwrap().len(), 3);
    // normalized: nobody is duplicated
    assert_eq!(reduced.total_tuples(), 7);
}

/// Fig. 6: join along the schema into one denormalized relation function.
#[test]
fn f6_join() {
    let db = retail_db();
    let joined = join(&db).unwrap();
    assert_eq!(joined.len(), 3);
    for (_, t) in joined.tuples().unwrap() {
        assert!(t.has_attr("customers.name"));
        assert!(t.has_attr("products.price"));
        assert!(t.has_attr("order.date"));
    }
}

/// Fig. 7: outer marking returns inner/outer as separate relation
/// functions; no NULLs anywhere.
#[test]
fn f7_generalized_outer_join() {
    let db = retail_db();
    let out = outer(&db, &["products"]).unwrap();
    let sold = out.relation("products.inner").unwrap();
    let unsold = out.relation("products.outer").unwrap();
    assert_eq!(sold.len() + unsold.len(), 3);
    assert_eq!(unsold.len(), 1);
    // every tuple keeps exactly the products schema — nothing padded
    for (_, t) in unsold.tuples().unwrap() {
        let names: Vec<_> = t.attr_names().map(|n| n.to_string()).collect();
        assert_eq!(names, vec!["name", "price"]);
    }
}

/// Fig. 8: grouping sets yield one relation function per grouping.
#[test]
fn f8_grouping_sets() {
    let db = retail_db();
    let customers = db.relation("customers").unwrap();
    let gset = grouping_sets(
        &customers,
        &[
            GroupingSpec::new("age_cc", &["age"], &[("count", AggSpec::Count)]),
            GroupingSpec::new(
                "age_name_cc",
                &["age", "name"],
                &[("count", AggSpec::Count)],
            ),
            GroupingSpec::new("global_min", &[], &[("min", AggSpec::Min("age".into()))]),
        ],
    )
    .unwrap();
    assert_eq!(gset.len(), 3);
    assert_eq!(gset.relation("age_cc").unwrap().len(), 3);
    assert_eq!(gset.relation("age_name_cc").unwrap().len(), 3);
    assert_eq!(
        gset.relation("global_min")
            .unwrap()
            .lookup(&Value::Int(0))
            .unwrap()
            .get("min")
            .unwrap(),
        Value::Int(30)
    );
}

/// Fig. 9: set operations on whole databases.
#[test]
fn f9_database_set_operations() {
    let db = retail_db();
    let copy = deep_copy(&db).unwrap();
    assert!(difference(&db, &copy).unwrap().is_empty());

    let changed = db_upsert(
        &copy,
        "customers",
        Value::Int(9),
        TupleF::builder("c")
            .attr("name", "Zoe")
            .attr("age", 21)
            .build(),
    )
    .unwrap();
    let diff = difference(&db, &changed).unwrap();
    assert_eq!(diff.relation("customers.added").unwrap().len(), 1);
    assert!(!diff.contains("customers.removed"));
    assert_eq!(
        union(&db, &changed)
            .unwrap()
            .relation("customers")
            .unwrap()
            .len(),
        4
    );
    assert_eq!(
        intersect(&db, &changed)
            .unwrap()
            .relation("customers")
            .unwrap()
            .len(),
        3
    );
    assert_eq!(
        minus(&changed, &db)
            .unwrap()
            .relation("customers")
            .unwrap()
            .len(),
        1
    );
}

/// Fig. 10: inserts, updates, deletes; immediate application; no save().
#[test]
fn f10_change_operations() {
    let db = retail_db();
    let db = db_upsert(
        &db,
        "customers",
        Value::Int(7),
        TupleF::builder("t")
            .attr("name", "Tom")
            .attr("age", 42)
            .build(),
    )
    .unwrap();
    let (db, key) = db_add(
        &db,
        "customers",
        TupleF::builder("t")
            .attr("name", "Stephen")
            .attr("age", 28)
            .build(),
    )
    .unwrap();
    assert_eq!(key, Value::Int(8));
    let db = db_update_attr(&db, "customers", &Value::Int(7), "age", 50).unwrap();
    let db = db_delete(&db, "customers", &Value::Int(8)).unwrap();
    let c = db.relation("customers").unwrap();
    assert_eq!(c.len(), 4);
    assert_eq!(
        c.lookup(&Value::Int(7)).unwrap().get("age").unwrap(),
        Value::Int(50)
    );
}

/// Fig. 11: the transfer under begin/commit with snapshot semantics.
#[test]
fn f11_transaction() {
    let accounts = RelationF::new("accounts", &["id"])
        .insert(
            Value::Int(42),
            TupleF::builder("a").attr("balance", 1000).build(),
        )
        .unwrap()
        .insert(
            Value::Int(84),
            TupleF::builder("a").attr("balance", 500).build(),
        )
        .unwrap();
    let store = Store::new(DatabaseF::new("bank").with_relation(accounts));
    let mut txn = store.begin();
    txn.modify_attr("accounts", &Value::Int(42), "balance", |v| {
        v.sub(&Value::Int(100))
    })
    .unwrap();
    txn.modify_attr("accounts", &Value::Int(84), "balance", |v| {
        v.add(&Value::Int(100))
    })
    .unwrap();
    txn.commit().unwrap();
    let db = store.snapshot();
    let rel = db.relation("accounts").unwrap();
    assert_eq!(
        rel.lookup(&Value::Int(42)).unwrap().get("balance").unwrap(),
        Value::Int(900)
    );
    assert_eq!(
        rel.lookup(&Value::Int(84)).unwrap().get("balance").unwrap(),
        Value::Int(600)
    );
}

/// Contribution 10: the injection payload that owns the spliced-SQL
/// baseline is inert in FQL.
#[test]
fn c10_injection_contrast() {
    use fdm_relational::{Catalog, Cell, Relation, Schema};
    let mut users = Relation::new("users", Schema::new(&["id", "name", "secret"]));
    users.push(vec![Cell::Int(1), Cell::str("alice"), Cell::str("s1")]);
    users.push(vec![Cell::Int(2), Cell::str("bob"), Cell::str("s2")]);
    let mut catalog = Catalog::new();
    catalog.register(users);
    let payload = "' OR '1'='1";
    let sql_result = catalog
        .query_where_name_equals_spliced("users", payload)
        .unwrap();
    assert_eq!(sql_result.len(), 2, "spliced SQL is owned");

    let users_fdm = RelationF::new("users", &["id"])
        .insert(
            Value::Int(1),
            TupleF::builder("u").attr("name", "alice").build(),
        )
        .unwrap()
        .insert(
            Value::Int(2),
            TupleF::builder("u").attr("name", "bob").build(),
        )
        .unwrap();
    let fql_result =
        filter_expr(&users_fdm, "name == $n", Params::new().set("n", payload)).unwrap();
    assert_eq!(fql_result.len(), 0, "FQL treats the payload as data");
}

/// §2.6: blurring the lines — nested tuples, relations in tuples, tuples
/// as database entries.
#[test]
fn s26_blurring_the_lines() {
    let t1 = TupleF::builder("t1")
        .attr("name", "Alice")
        .attr("foo", 12)
        .build();
    // t3('foo') = t1 — a higher-order tuple
    let t3 = TupleF::builder("t3")
        .attr("name", "Bob")
        .function("foo", t1)
        .build();
    let nested = t3.get("foo").unwrap();
    let inner = nested.as_fn("nested").unwrap().as_tuple().unwrap();
    assert_eq!(inner.get("foo").unwrap(), Value::Int(12));

    // t5('foo') = R — a relation nested in a tuple
    let r = RelationF::new("R", &["k"])
        .insert(Value::Int(1), TupleF::builder("x").attr("v", 9).build())
        .unwrap();
    let t5 = TupleF::builder("t5")
        .attr("name", "Tom")
        .function("foo", r)
        .build();
    let rel_v = t5.get("foo").unwrap();
    let rel = rel_v.as_fn("rel").unwrap().as_relation().unwrap();
    assert_eq!(
        rel.lookup(&Value::Int(1)).unwrap().get("v").unwrap(),
        Value::Int(9)
    );

    // and t5 can be promoted into a database's codomain
    let db = DatabaseF::new("DB").with_entry("myTab", FnValue::from(t5));
    assert!(db.entry("myTab").unwrap().as_tuple().is_ok());
}

/// §4.4: in-place assignment of arbitrary FQL expressions, dynamic vs
/// materialized.
#[test]
fn s44_views() {
    use fdm_fql::{materialize_view, DynamicView, Query};
    let db = retail_db();
    let view = DynamicView::new(
        "oldies",
        Query::scan("customers").filter("age > $a", Params::new().set("a", 42)),
    );
    assert_eq!(view.eval(&db).unwrap().len(), 2);
    let db_m = materialize_view(&db, &view).unwrap();
    assert_eq!(db_m.relation("oldies").unwrap().len(), 2);
}

// ---------------------------------------------------- shapes at scale
//
// The paper reports no numbers: each figure claims a *shape*. The tests
// below check those shapes on generated retail data against the
// from-scratch relational baseline, comparing counts only, never clocks.
// Sizes: 2,000 orders, and a 500-customer fan-out sweep over {1, 4, 16}.

/// The standard retail data at 2,000 orders: 400 customers, 80 products.
fn retail_2k() -> RetailConfig {
    RetailConfig {
        customers: 400,
        products: 80,
        orders: 2_000,
        product_skew: 1.0,
        inactive_customers: 0.2,
        seed: 0xFD17,
    }
}

/// 500 customers, 80% of them active, with `fanout` orders per active
/// customer on average: the Fig. 5/6/7 sweep.
fn fanout_500(fanout: usize) -> RetailConfig {
    RetailConfig {
        customers: 500,
        products: 125,
        orders: 500 * fanout * 4 / 5,
        product_skew: 1.0,
        inactive_customers: 0.2,
        seed: 0xFA0,
    }
}

const FANOUTS: [usize; 3] = [1, 4, 16];

fn int_keys(rel: &RelationF) -> Vec<i64> {
    rel.stored_keys()
        .into_iter()
        .map(|k| k.as_int("key").unwrap())
        .collect()
}

fn int_cell(c: &Cell) -> i64 {
    match c {
        Cell::Int(i) => *i,
        other => panic!("expected an integer cell, got {other:?}"),
    }
}

/// Attribute values over a relation function's tuples: `(rows, cells)`.
fn rows_and_cells(rel: &RelationF) -> (usize, usize) {
    let tuples = rel.tuples().unwrap();
    let cells = tuples.iter().map(|(_, t)| t.attr_count()).sum();
    (tuples.len(), cells)
}

/// Fig. 4a at scale: the five costumes select the same *key set*, and it
/// is the relational σ's.
#[test]
fn f4a_costumes_select_one_key_set_at_scale() {
    let data = generate(&retail_2k());
    let db = to_fdm(&data);
    let rel = to_relational(&data);
    let customers = db.relation("customers").unwrap();
    let by_fn = filter_fn(&customers, |t| Ok(t.get("age")?.as_int("age")? > 42)).unwrap();
    let by_kwargs = filter_kwargs(&customers, &[("age__gt", Value::Int(42))]).unwrap();
    let by_attr = filter_attr(&customers, "age", fdm_expr::GT, 42).unwrap();
    let by_text = filter_expr(&customers, "age>$foo", Params::new().set("foo", 42)).unwrap();
    let sql = select(&rel.customers, |s, r| {
        let i = s.index_of("age")?;
        r[i].sql_cmp(&Cell::Int(42))
            .map(|o| o == std::cmp::Ordering::Greater)
    });
    let mut sql_keys: Vec<i64> = sql.rows().iter().map(|r| int_cell(&r[0])).collect();
    sql_keys.sort_unstable();
    assert!(!sql_keys.is_empty() && sql_keys.len() < customers.len());
    for (costume, out) in [
        ("closure", &by_fn),
        ("kwargs", &by_kwargs),
        ("filter_attr", &by_attr),
        ("textual $param", &by_text),
    ] {
        assert_eq!(int_keys(out), sql_keys, "{costume} selects σ's keys");
    }
}

/// Fig. 4b/c at scale: unrolled `group` + `aggregate`, fused
/// `group_and_aggregate` and SQL `GROUP BY` give the same groups with the
/// same counts.
#[test]
fn f4bc_group_by_three_ways_agree_at_scale() {
    let data = generate(&retail_2k());
    let db = to_fdm(&data);
    let rel = to_relational(&data);
    let customers = db.relation("customers").unwrap();
    let counts = |r: &RelationF| -> BTreeMap<i64, i64> {
        r.tuples()
            .unwrap()
            .iter()
            .map(|(_, t)| {
                let age = t.get("age").unwrap().as_int("age").unwrap();
                (age, t.get("count").unwrap().as_int("count").unwrap())
            })
            .collect()
    };
    let groups = group(&customers, &["age"]).unwrap();
    let unrolled = counts(&aggregate(&groups, &[("count", AggSpec::Count)]).unwrap());
    let fused =
        counts(&group_and_aggregate(&customers, &["age"], &[("count", AggSpec::Count)]).unwrap());
    let sql_out = group_by(&rel.customers, &["age"], &[Agg::CountStar]);
    let sql: BTreeMap<i64, i64> = sql_out
        .rows()
        .iter()
        .map(|r| (int_cell(&r[0]), int_cell(&r[1])))
        .collect();
    assert!(sql.len() > 1);
    assert_eq!(sql.values().sum::<i64>(), customers.len() as i64);
    assert_eq!(unrolled, sql, "group; aggregate ≡ GROUP BY");
    assert_eq!(fused, sql, "group_and_aggregate ≡ GROUP BY");
}

/// Figs. 5/6 at scale: the denormalized join repeats what the
/// subdatabase stores once, and the repetition grows with fan-out.
#[test]
fn f5_f6_join_repeats_what_the_subdatabase_stores_once() {
    let mut blowups = Vec::new();
    for fanout in FANOUTS {
        let data = generate(&fanout_500(fanout));
        let db = to_fdm(&data);
        let (_, join_values) = rows_and_cells(&join(&db).unwrap());
        let reduced = reduce_db(&db).unwrap();
        let customers = reduced.relation("customers").unwrap();
        // each entity stores its key plus three attributes, each link its
        // two keys plus two attributes
        let c = customers.len();
        let p = reduced.relation("products").unwrap().len();
        let o = reduced.relationship("order").unwrap().len();
        let sub_values = 4 * (c + p + o);
        assert!(
            join_values > sub_values,
            "fan-out {fanout}: join {join_values} values vs subDB {sub_values}"
        );
        blowups.push(join_values as f64 / sub_values as f64);
        // every participating customer, each once
        let participating: BTreeSet<i64> = data.orders.iter().map(|o| o.0).collect();
        assert_eq!(
            int_keys(&customers),
            participating.into_iter().collect::<Vec<_>>()
        );
    }
    assert!(
        blowups.windows(2).all(|w| w[0] < w[1]),
        "blow-up rises strictly with fan-out: {blowups:?}"
    );
}

/// Fig. 6 ablation at scale: the optimizer's plan pushes the predicate
/// below the join, so it produces fewer intermediate rows than the
/// declared plan, with the same keyed result.
#[test]
fn f6_optimized_plan_moves_fewer_rows_at_scale() {
    let db = to_fdm(&generate(&retail_2k()));
    let orders = db
        .relationship("order")
        .unwrap()
        .to_relation()
        .renamed("orders_rel");
    let db = db.with_relation(orders);
    let q = Query::scan("orders_rel")
        .join("customers", "cid", "cid")
        .filter("date > $d", Params::new().set("d", "2026-09"));
    let (declared, declared_stats) = q.eval_with_stats(&db).unwrap();
    let (optimized, optimized_stats) = q.optimize().eval_with_stats(&db).unwrap();
    assert!(
        optimized_stats.total_intermediate() < declared_stats.total_intermediate(),
        "optimized {} vs declared {}",
        optimized_stats.total_intermediate(),
        declared_stats.total_intermediate()
    );
    let (a, b) = (declared.tuples().unwrap(), optimized.tuples().unwrap());
    assert!(!a.is_empty());
    assert_eq!(a.len(), b.len());
    for ((ka, ta), (kb, tb)) in a.iter().zip(&b) {
        assert_eq!(ka, kb);
        assert!(ta.eq_data(tb), "row {ka} differs");
    }
}

/// Fig. 7 at scale: the SQL left outer join pads unmatched customers
/// with NULLs; FDM's `outer` splits them into a relation of their own,
/// and every output tuple keeps exactly its relation's attributes.
#[test]
fn f7_outer_splits_what_sql_pads_at_scale() {
    for fanout in FANOUTS {
        let data = generate(&fanout_500(fanout));
        let db = to_fdm(&data);
        let rel = to_relational(&data);
        let sql = outer_join(&rel.customers, &rel.orders, "cid", "cid", OuterSide::Left);
        let date = sql.schema().index_of("date").unwrap();
        let padded = sql.rows().iter().filter(|r| r[date].is_null()).count();
        assert!(
            sql.null_count() > 0,
            "fan-out {fanout}: SQL pads with NULLs"
        );

        let out = outer(&db, &["customers"]).unwrap();
        let inner = out.relation("customers.inner").unwrap();
        let unmatched = out.relation("customers.outer").unwrap();
        assert_eq!(unmatched.len(), padded, "fan-out {fanout}");
        assert_eq!(inner.len() + unmatched.len(), data.customers.len());
        for side in [&inner, &unmatched] {
            for (_, t) in side.tuples().unwrap() {
                let names: Vec<_> = t.attr_names().map(|n| n.to_string()).collect();
                assert_eq!(names, ["name", "age", "state"], "fan-out {fanout}");
            }
        }
    }
}

/// Fig. 8 at scale: grouping sets and cube give one relation function per
/// grouping with no NULLs, the same rows as SQL, and fewer cells than
/// SQL's one NULL-filled relation.
#[test]
fn f8_grouping_sets_carry_no_nulls_at_scale() {
    let data = generate(&retail_2k());
    let db = to_fdm(&data);
    let rel = to_relational(&data);
    let customers = db.relation("customers").unwrap();
    // FDM has no NULL: each grouping's rows carry exactly its own
    // attributes. `padded` counts what would stand in for one: a row whose
    // attributes differ from its relation's first row, or a unit value.
    let fdm_shape = |out: &DatabaseF| -> (usize, usize, usize) {
        let (mut rows, mut cells, mut padded) = (0, 0, 0);
        for (_, r) in out.relations() {
            let (n, c) = rows_and_cells(r);
            rows += n;
            cells += c;
            let tuples = r.tuples().unwrap();
            let schema: Vec<_> = tuples[0].1.attr_names().cloned().collect();
            for (_, t) in &tuples {
                let names: Vec<_> = t.attr_names().cloned().collect();
                padded += usize::from(names != schema);
                padded += names
                    .iter()
                    .filter(|a| t.get(a).unwrap() == Value::Unit)
                    .count();
            }
        }
        (rows, cells, padded)
    };

    let gsets = grouping_sets(
        &customers,
        &[
            GroupingSpec::new("age_cc", &["age"], &[("count", AggSpec::Count)]),
            GroupingSpec::new(
                "state_age_cc",
                &["state", "age"],
                &[("count", AggSpec::Count)],
            ),
            GroupingSpec::new("global_min", &[], &[("min", AggSpec::Min("age".into()))]),
        ],
    )
    .unwrap();
    let sql_gsets = rel_grouping_sets(
        &rel.customers,
        &[
            GroupingSet {
                by: vec!["age".into()],
                aggs: vec![Agg::CountStar],
            },
            GroupingSet {
                by: vec!["state".into(), "age".into()],
                aggs: vec![Agg::CountStar],
            },
            GroupingSet {
                by: vec![],
                aggs: vec![Agg::Min("age".into())],
            },
        ],
    );
    let fdm_cube = cube(&customers, &["state", "age"], &[("count", AggSpec::Count)]).unwrap();
    let sql_cube = rel_cube(&rel.customers, &["state", "age"], &[Agg::CountStar]);

    for (what, fdm, groupings, sql) in [
        ("grouping sets", &gsets, 3, &sql_gsets),
        ("cube", &fdm_cube, 4, &sql_cube),
    ] {
        let (rows, cells, padded) = fdm_shape(fdm);
        assert_eq!(
            fdm.relations().count(),
            groupings,
            "{what}: one fn per grouping"
        );
        assert_eq!(padded, 0, "{what}: FDM pads nothing");
        assert_eq!(rows, sql.len(), "{what}: same rows as SQL");
        assert!(sql.null_count() > 0, "{what}: SQL fills with NULLs");
        assert!(
            cells < sql.cell_count(),
            "{what}: FDM {cells} cells vs SQL {}",
            sql.cell_count()
        );
    }
}

/// Fig. 9 at scale: 50 upserts to a deep copy, seen through each
/// database-level set operation.
///
/// The operations are *relation-wise*: relationship functions (here the
/// `order` links) are in none of their results, so `difference` cannot
/// report a changed link. ROADMAP lists this as an open item.
#[test]
fn f9_set_operations_see_the_edit_at_scale() {
    let db = to_fdm(&generate(&retail_2k()));
    let base = db.relation("customers").unwrap().len();
    let mut edited = deep_copy(&db).unwrap();
    for i in 0..50i64 {
        let tuple = TupleF::builder("c")
            .attr("name", format!("new{i}"))
            .attr("age", 20 + i)
            .attr("state", "NV")
            .build();
        edited = db_upsert(&edited, "customers", Value::Int(1_000_000 + i), tuple).unwrap();
    }
    let customers = |d: &DatabaseF| d.relation("customers").unwrap().len();

    let diff = difference(&db, &edited).unwrap();
    assert_eq!(diff.relation("customers.added").unwrap().len(), 50);
    assert!(!diff.contains("customers.removed"));
    assert_eq!(diff.len(), 1, "only the customers changed");
    let u = union(&db, &edited).unwrap();
    assert_eq!(customers(&u), base + 50);
    let i = intersect(&db, &edited).unwrap();
    assert_eq!(customers(&i), base);
    assert_eq!(minus(&edited, &db).unwrap().total_tuples(), 50);

    // relation-wise scope: no result carries the relationship
    let products = db.relation("products").unwrap().len();
    assert!(!u.contains("order") && !i.contains("order"));
    assert_eq!(u.total_tuples(), base + 50 + products);
    assert_eq!(i.total_tuples(), base + products);
    let order = db.relationship("order").unwrap();
    let (cid, pid) = (Value::Int(1), Value::Int(1));
    let relinked = if order.relates(&[cid.clone(), pid.clone()]) {
        order.remove(&[cid, pid]).unwrap()
    } else {
        order.insert_link(&[cid, pid]).unwrap()
    };
    let relinked = db.with_relationship(relinked);
    assert!(
        difference(&db, &relinked).unwrap().is_empty(),
        "a changed link is invisible to difference"
    );
}

/// Fig. 10 at scale: an update shares structure with the version it
/// updates. Measured in bytes allocated, not time: one `db_update_attr`
/// copies one root-to-leaf path, a `deep_copy` copies everything.
#[test]
fn f10_updates_allocate_a_path_not_a_copy() {
    let accounts = |n: i64| {
        let mut rel = RelationBuilder::new("accounts", &["id"]);
        for i in 0..n {
            let t = rel.tuple("a").attr("balance", 100i64).build();
            rel.push(Value::Int(i), t);
        }
        DatabaseF::new("bank").with_relation(rel.build().unwrap())
    };
    // mean bytes of one update over many keys, and bytes of one deep copy
    let measure = |n: i64| -> (usize, usize) {
        const UPDATES: i64 = 64;
        let mut db = accounts(n);
        let (_, update_bytes) = allocated_by(|| {
            for i in 0..UPDATES {
                let key = Value::Int(i * (n / UPDATES));
                db = db_update_attr(&db, "accounts", &key, "balance", i).unwrap();
            }
        });
        let (copy, copy_bytes) = allocated_by(|| deep_copy(&db).unwrap());
        assert_eq!(copy.total_tuples(), n as usize);
        (update_bytes / UPDATES as usize, copy_bytes)
    };
    let (update_1k, copy_1k) = measure(1_000);
    let (update_10k, copy_10k) = measure(10_000);
    assert!(
        update_10k * 100 <= copy_10k,
        "10k rows: update {update_10k} B vs deep copy {copy_10k} B"
    );
    assert!(
        update_10k < 2 * update_1k,
        "an update grows with the path: {update_1k} → {update_10k} B"
    );
    assert!(
        copy_10k >= 5 * copy_1k,
        "a copy grows with the data: {copy_1k} → {copy_10k} B"
    );
}

/// 2^16 accounts under keys `0..2^16`, the relation the counted Fig. 10
/// write pins below append to.
const BANK_ROWS: i64 = 1 << 16;

/// Writes per measured group in the counted Fig. 10 pins.
const GROUP: i64 = 64;

fn bank() -> DatabaseF {
    let mut rel = RelationBuilder::new("accounts", &["id"]);
    for i in 0..BANK_ROWS {
        let t = rel.tuple("a").attr("balance", 100i64).build();
        rel.push(Value::Int(i), t);
    }
    DatabaseF::new("bank").with_relation(rel.build().unwrap())
}

/// The tuples the counted pins write, built before anything is measured.
fn balances() -> Vec<TupleF> {
    (0..GROUP)
        .map(|i| TupleF::builder("a").attr("balance", i).build())
        .collect()
}

/// Fig. 10 writes in one group copy each shared node once: 64 upserts
/// appended to a 2^16-row relation as one `apply_ops` group allocate at
/// most a quarter of what 64 one-op groups allocate. The group's first op
/// copies the paths it touches out of the shared root; the ops after it
/// edit those copies in place. One-op groups copy the paths again per op.
#[test]
fn f10_a_group_of_writes_copies_shared_nodes_once() {
    let db = bank();
    let ops: Vec<Op> = balances()
        .into_iter()
        .zip(BANK_ROWS..)
        .map(|(t, key)| Op::Upsert {
            rel: Name::from("accounts"),
            key: Value::Int(key),
            tuple: Arc::new(t),
        })
        .collect();
    let (grouped, group_bytes) = allocated_by(|| apply_ops(&db, &ops, |_| {}).unwrap());
    let (single, single_bytes) = allocated_by(|| {
        let mut out = db.clone();
        for op in &ops {
            out = apply_ops(&out, std::slice::from_ref(op), |_| {}).unwrap();
        }
        out
    });
    let rows = |db: &DatabaseF| -> Vec<(Value, Value)> {
        let rel = db.relation("accounts").unwrap();
        let balance = |(k, t): (Value, Arc<TupleF>)| (k, t.get("balance").unwrap());
        rel.iter_stored().map(balance).collect()
    };
    assert_eq!(rows(&grouped), rows(&single));
    assert_eq!(rows(&grouped).len(), (BANK_ROWS + GROUP) as usize);
    assert_eq!(db.relation("accounts").unwrap().len(), BANK_ROWS as usize);
    assert!(
        group_bytes * 4 <= single_bytes,
        "one group {group_bytes} B vs {GROUP} one-op groups {single_bytes} B"
    );
}

/// A transaction stages its writes the same way: 64 `Transaction::upsert`s
/// (or `add`s) of appended keys staged in one transaction allocate at most
/// a quarter of what 64 one-write transactions allocate, and the snapshot
/// they started from is unchanged.
#[test]
fn f10_a_transaction_stages_its_writes_in_place() {
    let store = Store::new(bank());
    type Stage = fn(&mut fdm_txn::Transaction, i64, TupleF);
    let upsert: Stage = |t, key, tuple| t.upsert("accounts", Value::Int(key), tuple).unwrap();
    let add: Stage = |t, _, tuple| drop(t.add("accounts", tuple).unwrap());
    for (what, stage) in [("upsert", upsert), ("add", add)] {
        let (for_one, for_many) = (balances(), balances());
        let (one, one_bytes) = allocated_by(|| {
            let mut txn = store.begin();
            for (t, key) in for_one.into_iter().zip(BANK_ROWS..) {
                stage(&mut txn, key, t);
            }
            txn
        });
        let (_, many_bytes) = allocated_by(|| {
            for (t, key) in for_many.into_iter().zip(BANK_ROWS..) {
                stage(&mut store.begin(), key, t);
            }
        });
        let staged = one.db().relation("accounts").unwrap();
        assert_eq!(staged.len(), (BANK_ROWS + GROUP) as usize, "{what}");
        assert_eq!(store.snapshot().total_tuples(), BANK_ROWS as usize);
        assert!(
            one_bytes * 4 <= many_bytes,
            "{what}: one transaction {one_bytes} B vs {GROUP} one-write transactions {many_bytes} B"
        );
    }
}

/// Fig. 11 at scale: 2,000 transfers over 64 accounts at 1 and 4 threads.
/// Money is conserved, every transaction either commits or loses a
/// first-committer-wins conflict, and one thread never conflicts.
#[test]
fn f11_transfers_conserve_money_at_scale() {
    const ACCOUNTS: u64 = 64;
    const TRANSFERS: usize = 2_000;
    for threads in [1usize, 4] {
        let mut rel = RelationBuilder::new("accounts", &["id"]);
        for i in 0..ACCOUNTS as i64 {
            let t = rel.tuple("a").attr("balance", 1000i64).build();
            rel.push(Value::Int(i), t);
        }
        let store = Store::new(DatabaseF::new("bank").with_relation(rel.build().unwrap()));
        let committed = AtomicUsize::new(0);
        let conflicted = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for tid in 0..threads {
                let (store, committed, conflicted) = (&store, &committed, &conflicted);
                s.spawn(move || {
                    let mut x = (tid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut next = move || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x % ACCOUNTS
                    };
                    for _ in 0..TRANSFERS / threads {
                        let from = next() as i64;
                        let to = (from + 1 + (next() % (ACCOUNTS - 1)) as i64) % ACCOUNTS as i64;
                        let mut txn = store.begin();
                        txn.modify_attr("accounts", &Value::Int(from), "balance", |v| {
                            v.sub(&Value::Int(1))
                        })
                        .unwrap();
                        txn.modify_attr("accounts", &Value::Int(to), "balance", |v| {
                            v.add(&Value::Int(1))
                        })
                        .unwrap();
                        match txn.commit() {
                            Ok(_) => committed.fetch_add(1, Ordering::Relaxed),
                            Err(FdmError::TransactionConflict { .. }) => {
                                conflicted.fetch_add(1, Ordering::Relaxed)
                            }
                            Err(e) => panic!("transfer failed: {e}"),
                        };
                    }
                });
            }
        });
        let total: i64 = store
            .snapshot()
            .relation("accounts")
            .unwrap()
            .tuples()
            .unwrap()
            .iter()
            .map(|(_, t)| t.get("balance").unwrap().as_int("balance").unwrap())
            .sum();
        let (committed, conflicted) = (committed.into_inner(), conflicted.into_inner());
        assert_eq!(
            total,
            ACCOUNTS as i64 * 1000,
            "{threads} threads: money conserved"
        );
        assert_eq!(committed + conflicted, TRANSFERS, "{threads} threads");
        if threads == 1 {
            assert_eq!(conflicted, 0, "a lone writer never conflicts");
        }
    }
}
