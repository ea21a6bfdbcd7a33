//! Time travel: querying the past for free.
//!
//! Because the database function is a persistent value, the store keeps
//! one root, the newest, and per retained version the record of the
//! commit that made it — its ops and the tuples they replaced — so a
//! version costs what its commit wrote, and unchanged data is shared. A
//! past root is rebuilt from the records when asked for. This example
//! queries a past version and diffs two points in time with the Fig. 9
//! set operations.
//!
//! Run with: `cargo run -p fdm-examples --bin time_travel`

use fdm_core::{DatabaseF, RelationF, TupleF, Value};
use fdm_fql::prelude::*;
use fdm_txn::Store;

fn main() -> fdm_core::Result<()> {
    let products = RelationF::new("products", &["pid"])
        .insert(
            Value::Int(1),
            TupleF::builder("p")
                .attr("name", "keyboard")
                .attr("price", 49.0)
                .build(),
        )?
        .insert(
            Value::Int(2),
            TupleF::builder("p")
                .attr("name", "mouse")
                .attr("price", 19.0)
                .build(),
        )?;
    let store = Store::new(DatabaseF::new("shop").with_relation(products));

    // a week of price changes and catalog churn, one commit per "day"
    let days: &[(&str, i64, f64)] = &[
        ("mon", 1, 44.0),
        ("tue", 2, 17.5),
        ("wed", 1, 39.0),
        ("thu", 2, 21.0),
        ("fri", 1, 35.0),
    ];
    for (day, pid, price) in days {
        let mut txn = store.begin();
        txn.update_attr("products", &Value::Int(*pid), "price", *price)?;
        if *day == "wed" {
            txn.upsert(
                "products",
                Value::Int(3),
                TupleF::builder("p")
                    .attr("name", "webcam")
                    .attr("price", 89.0)
                    .build(),
            )?;
        }
        let v = txn.commit()?;
        println!("committed {day} as version {v}");
    }

    // ── query a past version like any other database ─────────────────────
    let monday = store.as_of(1)?;
    let keyboard_mon = monday
        .relation("products")?
        .lookup(&Value::Int(1))
        .unwrap()
        .get("price")?;
    let keyboard_now = store
        .snapshot()
        .relation("products")?
        .lookup(&Value::Int(1))
        .unwrap()
        .get("price")?;
    println!("\nkeyboard price: monday = {keyboard_mon}, now = {keyboard_now}");
    assert_eq!(keyboard_mon, Value::Float(44.0));
    assert_eq!(keyboard_now, Value::Float(35.0));

    // a full FQL query against the past
    let cheap_then = filter_expr(
        monday.relation("products")?.as_ref(),
        "price < $p",
        Params::new().set("p", 20.0),
    )?;
    println!("products under 20 on monday: {}", cheap_then.len());

    // ── diff two versions with Fig. 9 machinery ──────────────────────────
    let diff = difference(&store.as_of(1)?, &store.as_of(5)?)?;
    println!("\nchanges between monday and friday:");
    for (name, entry) in diff.iter() {
        let n = entry.as_relation().map(|r| r.len()).unwrap_or(0);
        println!("  {name}: {n} tuple(s)");
    }
    let added = diff.relation("products.added")?;
    // webcam appeared + both repriced tuples count as added/removed pairs
    assert!(!added.is_empty());
    assert!(store.history().versions().len() >= 6);
    println!("\nretained versions: {:?}", store.history().versions());
    Ok(())
}
