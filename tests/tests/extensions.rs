//! Integration tests for the beyond-the-figures extensions: the scalar
//! function library in FQL filters (contribution 8), order/limit in lazy
//! plans, time-travel history, and operator composition across crates.

use fdm_core::{TupleF, Value};
use fdm_expr::Params;
use fdm_fql::prelude::*;
use fdm_fql::Query;
use fdm_txn::Store;
use fdm_workload::{generate, to_fdm, RetailConfig};

#[test]
fn scalar_functions_inside_fql_filters() {
    let db = to_fdm(&generate(&RetailConfig::small()));
    let customers = db.relation("customers").unwrap();
    // contribution 8: library functions straight in the textual costume
    let shouty = filter_expr(
        &customers,
        "starts_with(name, $p) and len(name) > 9",
        Params::new().set("p", "customer_1"),
    )
    .unwrap();
    for (_, t) in shouty.tuples().unwrap() {
        let name = t.get("name").unwrap();
        let s = name.as_str("name").unwrap().to_string();
        assert!(s.starts_with("customer_1") && s.chars().count() > 9);
    }
    // upper/lower roundtrip as a predicate
    let all = filter_expr(
        &customers,
        "lower(upper(state)) == lower(state)",
        Params::new(),
    )
    .unwrap();
    assert_eq!(all.len(), customers.len());
}

#[test]
fn top_k_pipeline_across_engines() {
    let db = to_fdm(&generate(&RetailConfig {
        customers: 300,
        products: 40,
        orders: 900,
        product_skew: 1.2,
        inactive_customers: 0.1,
        seed: 5,
    }));
    // top-3 customers by order count: join → group → aggregate → top_k
    let joined = join(&db).unwrap();
    let per_customer =
        group_and_aggregate(&joined, &["customers.cid"], &[("orders", AggSpec::Count)]).unwrap();
    let top3 = top_k(&per_customer, "orders", Order::Desc, 3).unwrap();
    assert_eq!(top3.len(), 3);
    let counts: Vec<i64> = top3
        .tuples()
        .unwrap()
        .iter()
        .map(|(_, t)| t.get("orders").unwrap().as_int("n").unwrap())
        .collect();
    assert!(
        counts.windows(2).all(|w| w[0] >= w[1]),
        "descending: {counts:?}"
    );
    // cross-check the winner against a manual count
    let max_manual = per_customer
        .tuples()
        .unwrap()
        .iter()
        .map(|(_, t)| t.get("orders").unwrap().as_int("n").unwrap())
        .max()
        .unwrap();
    assert_eq!(counts[0], max_manual);
}

#[test]
fn plan_with_order_and_limit() {
    let db = to_fdm(&generate(&RetailConfig::small()));
    let q = Query::scan("customers")
        .filter("age >= $a", Params::new().set("a", 30))
        .order_by("age", Order::Desc)
        .limit(5);
    let out = q.clone().optimize().eval(&db).unwrap();
    assert!(out.len() <= 5);
    let ages: Vec<i64> = out
        .tuples()
        .unwrap()
        .iter()
        .map(|(_, t)| t.get("age").unwrap().as_int("age").unwrap())
        .collect();
    assert!(ages.windows(2).all(|w| w[0] >= w[1]));
    assert!(ages.iter().all(|a| *a >= 30));
    // optimized and declared agree exactly
    let naive = q.eval(&db).unwrap();
    assert_eq!(naive.stored_keys(), out.stored_keys());
}

#[test]
fn history_supports_as_of_queries_after_churn() {
    let db = to_fdm(&generate(&RetailConfig::small()));
    let store = Store::new(db);

    let mut sizes = vec![store.snapshot().relation("customers").unwrap().len()];
    for i in 0..10i64 {
        let mut txn = store.begin();
        txn.upsert(
            "customers",
            Value::Int(10_000 + i),
            TupleF::builder("c")
                .attr("name", format!("late_{i}"))
                .attr("age", 20 + i)
                .attr("state", "NV")
                .build(),
        )
        .unwrap();
        txn.commit().unwrap();
        sizes.push(store.snapshot().relation("customers").unwrap().len());
    }
    // each recorded version reflects exactly its commit point
    for (i, &size) in sizes.iter().enumerate() {
        let past = store.as_of(i as u64).unwrap();
        assert_eq!(
            past.relation("customers").unwrap().len(),
            size,
            "version {i}"
        );
    }
    // a full FQL query against an old version
    let v3 = store.as_of(3).unwrap();
    let nv = filter_expr(
        v3.relation("customers").unwrap().as_ref(),
        "state == $s",
        Params::new().set("s", "NV"),
    )
    .unwrap();
    assert_eq!(nv.len(), 3);
}

#[test]
fn rename_then_join_on_renamed_attribute() {
    let db = to_fdm(&generate(&RetailConfig::small()));
    let customers = db.relation("customers").unwrap();
    let renamed = rename_attrs(&customers, &[("name", "customer_name")]).unwrap();
    let db2 = db.with_entry("customers2", fdm_core::FnValue::from(renamed));
    let q = Query::scan("customers2").filter("len(customer_name) > 0", Params::new());
    let out = q.eval(&db2).unwrap();
    assert_eq!(out.len(), customers.len());
}

#[test]
fn extend_composes_with_group_and_aggregate() {
    let db = to_fdm(&generate(&RetailConfig::small()));
    let customers = db.relation("customers").unwrap();
    // derive an age decade, then group by it — derived attributes are
    // full citizens (stored vs computed is invisible)
    let with_decade = extend_stored(&customers, "decade", |t| {
        let age = t.get("age")?.as_int("age")?;
        Ok(Value::Int(age / 10 * 10))
    })
    .unwrap();
    let by_decade =
        group_and_aggregate(&with_decade, &["decade"], &[("n", AggSpec::Count)]).unwrap();
    let total: i64 = by_decade
        .tuples()
        .unwrap()
        .iter()
        .map(|(_, t)| t.get("n").unwrap().as_int("n").unwrap())
        .sum();
    assert_eq!(total as usize, customers.len());
}
