//! Shared fixtures: the paper's running retail example (Fig. 1) in FDM
//! form. Public so examples, integration tests, and benches can reuse it.

use fdm_core::{
    DatabaseF, Domain, Participant, RelationF, RelationshipF, SharedDomain, TupleF, Value,
    ValueType,
};

/// The customers relation of the running example: Alice, Bob, Carol.
pub fn customers_relation() -> RelationF {
    let mut rel = RelationF::new("customers", &["cid"]);
    for (cid, name, age) in [(1, "Alice", 43), (2, "Bob", 30), (3, "Carol", 55)] {
        rel = rel
            .insert(
                Value::Int(cid),
                TupleF::builder(format!("c{cid}"))
                    .attr("name", name)
                    .attr("age", age)
                    .build(),
            )
            .expect("unique cids");
    }
    rel
}

/// The products relation: three products, one of which (pid 12) is never
/// ordered.
pub fn products_relation() -> RelationF {
    let mut rel = RelationF::new("products", &["pid"]);
    for (pid, name, price) in [
        (10, "keyboard", 49.0),
        (11, "mouse", 19.0),
        (12, "webcam", 89.0),
    ] {
        rel = rel
            .insert(
                Value::Int(pid),
                TupleF::builder(format!("p{pid}"))
                    .attr("name", name)
                    .attr("price", price)
                    .build(),
            )
            .expect("unique pids");
    }
    rel
}

/// The Fig. 1 retail database: customers, products, and the `order(cid,
/// pid)` relationship function over shared domains, with orders
/// (1,10), (1,11), (2,10) — leaving Carol and the webcam unmatched.
pub fn retail_db() -> DatabaseF {
    let cid = SharedDomain::new("cid", Domain::Typed(ValueType::Int));
    let pid = SharedDomain::new("pid", Domain::Typed(ValueType::Int));
    let mut order = RelationshipF::new(
        "order",
        vec![
            Participant::new("customers", "cid", cid.clone()),
            Participant::new("products", "pid", pid.clone()),
        ],
    );
    for (c, p, date) in [
        (1, 10, "2026-01-05"),
        (1, 11, "2026-02-11"),
        (2, 10, "2026-03-02"),
    ] {
        order = order
            .insert(
                &[Value::Int(c), Value::Int(p)],
                TupleF::builder("o").attr("date", date).build(),
            )
            .expect("unique order keys");
    }
    DatabaseF::new("shop")
        .with_domain(cid)
        .with_domain(pid)
        .with_relation(customers_relation())
        .with_relation(products_relation())
        .with_relationship(order)
}

/// A database where the declared join order is the expensive one: `base`
/// rows fan out 4× into `wide.k` but exactly 1× into `narrow.k2` — the
/// fixture behind the join-reordering tests and
/// `docs/OPTIMIZER.md`'s worked example.
pub fn skewed_db() -> DatabaseF {
    let mut base = fdm_core::RelationBuilder::new("base", &["id"]);
    for i in 1..=6i64 {
        base.push(
            Value::Int(i),
            TupleF::builder("b").attr("wk", i).attr("nk", i).build(),
        );
    }
    let mut wide = fdm_core::RelationBuilder::new("wide", &["wid"]);
    let mut w = 0i64;
    for k in 1..=6i64 {
        for _ in 0..4 {
            w += 1;
            wide.push(
                Value::Int(w),
                TupleF::builder("w").attr("k", k).attr("wv", w).build(),
            );
        }
    }
    let mut narrow = fdm_core::RelationBuilder::new("narrow", &["nid"]);
    for k in 1..=6i64 {
        narrow.push(
            Value::Int(k),
            TupleF::builder("n")
                .attr("k2", k)
                .attr("nv", k * 10)
                .build(),
        );
    }
    DatabaseF::new("skewed")
        .with_relation(base.build().unwrap())
        .with_relation(wide.build().unwrap())
        .with_relation(narrow.build().unwrap())
}

/// A three-join fixture where only *whole-chain* reordering helps: `a`
/// fans out `fanout`× per base row, `b` depends on `a`'s output
/// (`a.av`), and `c` is independent with fan-out 1. Declared as
/// `a, b, c`, no adjacent swap improves the plan — `(a, b)` is pinned
/// dependent and `(b, c)` is a fan-out tie — but the greedy enumerator's
/// `c, a, b` runs the whole pipeline on `fanout`× smaller intermediates.
/// Used by the `GreedyJoinOrder` tests and the `fig13_rule_optimizer`
/// bench series.
pub fn chain_db(fanout: usize) -> DatabaseF {
    chain_db_scaled(6, fanout)
}

/// [`chain_db`] with a configurable base-row count (the bench series
/// scales it; tests use the small default).
pub fn chain_db_scaled(base_rows: usize, fanout: usize) -> DatabaseF {
    let mut base = fdm_core::RelationBuilder::new("base", &["id"]);
    for i in 1..=base_rows as i64 {
        let t = base.tuple("b").attr("ak", i).attr("ck", i).build();
        base.push(Value::Int(i), t);
    }
    let mut a = fdm_core::RelationBuilder::new("a", &["aid"]);
    let mut av = 0i64;
    for k in 1..=base_rows as i64 {
        for _ in 0..fanout {
            av += 1;
            let t = a.tuple("a").attr("k", k).attr("av", av).build();
            a.push(Value::Int(av), t);
        }
    }
    // b and c are *keyed* by their join attributes so their distinct
    // counts are schema-exact (no sketch noise): both are true fan-out-1
    // joins, making (b, c) an exact cost tie.
    let mut b = fdm_core::RelationBuilder::new("b", &["k2"]);
    for v in 1..=(base_rows * fanout) as i64 {
        let t = b.tuple("bb").attr("bv", v * 2).build();
        b.push(Value::Int(v), t);
    }
    let mut c = fdm_core::RelationBuilder::new("c", &["k3"]);
    for k in 1..=base_rows as i64 {
        let t = c.tuple("cc").attr("cv", k * 7).build();
        c.push(Value::Int(k), t);
    }
    DatabaseF::new("chain")
        .with_relation(base.build().unwrap())
        .with_relation(a.build().unwrap())
        .with_relation(b.build().unwrap())
        .with_relation(c.build().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_consistent() {
        let db = retail_db();
        assert_eq!(db.relation("customers").unwrap().len(), 3);
        assert_eq!(db.relation("products").unwrap().len(), 3);
        assert_eq!(db.relationship("order").unwrap().len(), 3);
        assert!(db.shared_domain("cid").is_some());
    }
}
