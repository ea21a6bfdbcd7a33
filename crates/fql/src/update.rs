//! In-place FQL usage: change operations (paper Fig. 10, §4.4).
//!
//! In SQL, writes (INSERT/UPDATE/DELETE) are a stunted sibling of reads.
//! In FQL both sides are the same thing: an in-place expression replaces a
//! function in the input FDM. The helpers here are the Fig. 10 costumes,
//! all persistent — each returns a new [`DatabaseF`] and leaves the input
//! untouched, which is what the transaction layer (`fdm-txn`) builds on.

use fdm_core::{DatabaseF, FnValue, RelationF, Result, TupleF, Value};
use std::sync::Arc;

/// `customers[3] = {'name': 'Tom', 'age': 42}` — keyed insert (or
/// replacement) of a tuple in a relation of `db`.
pub fn db_upsert(db: &DatabaseF, rel: &str, key: Value, tuple: TupleF) -> Result<DatabaseF> {
    db_upsert_arc(db, rel, key, Arc::new(tuple))
}

/// [`db_upsert`] taking an already-shared tuple — the transaction layer
/// stages, logs and replays one `Arc<TupleF>` per write.
pub fn db_upsert_arc(
    db: &DatabaseF,
    rel: &str,
    key: Value,
    tuple: Arc<TupleF>,
) -> Result<DatabaseF> {
    let r = db.relation(rel)?;
    let r2 = r.upsert_arc(key, tuple)?;
    Ok(db.with_entry(rel, FnValue::from(r2)))
}

/// Strict insert: fails on an existing key.
pub fn db_insert(db: &DatabaseF, rel: &str, key: Value, tuple: TupleF) -> Result<DatabaseF> {
    let r = db.relation(rel)?;
    let r2 = r.insert(key, tuple)?;
    Ok(db.with_entry(rel, FnValue::from(r2)))
}

/// `customers.add({...})` — insert relying on an auto id; returns the new
/// database and the assigned key.
pub fn db_add(db: &DatabaseF, rel: &str, tuple: TupleF) -> Result<(DatabaseF, Value)> {
    let r = db.relation(rel)?;
    let (r2, key) = r.insert_auto(tuple)?;
    Ok((db.with_entry(rel, FnValue::from(r2)), key))
}

/// `customers[3]['age'] = 50` — update one attribute of one tuple.
pub fn db_update_attr(
    db: &DatabaseF,
    rel: &str,
    key: &Value,
    attr: &str,
    value: impl Into<Value>,
) -> Result<DatabaseF> {
    let r = db.relation(rel)?;
    let r2 = r.update_attr(key, attr, value)?;
    Ok(db.with_entry(rel, FnValue::from(r2)))
}

/// `accounts[42]['balance'] -= 100` — read-modify-write of one attribute.
pub fn db_modify_attr(
    db: &DatabaseF,
    rel: &str,
    key: &Value,
    attr: &str,
    f: impl FnOnce(&Value) -> Result<Value>,
) -> Result<DatabaseF> {
    let r = db.relation(rel)?;
    let r2 = r.update_tuple(key, |t| {
        let old = t.get(attr)?;
        Ok(t.with_attr(attr, f(&old)?))
    })?;
    Ok(db.with_entry(rel, FnValue::from(r2)))
}

/// `del customers[3]` — delete one tuple.
pub fn db_delete(db: &DatabaseF, rel: &str, key: &Value) -> Result<DatabaseF> {
    let r = db.relation(rel)?;
    let r2 = r.delete(key)?;
    Ok(db.with_entry(rel, FnValue::from(r2)))
}

/// The fully general in-place expression (§4.4): `DB('name') := f` where
/// `f` may be *any* FQL result — a filtered relation, a whole join result,
/// another database. This is just [`DatabaseF::with_entry`] re-exported
/// under its paper name.
pub fn db_assign(db: &DatabaseF, name: &str, f: impl Into<FnValue>) -> DatabaseF {
    db.with_entry(name, f)
}

/// Replaces an entire relation with the result of a transformation over
/// it — the "data rewrite rule" reading of in-place FQL (§4.4): e.g.
/// "replace customers by customers older than 42" in one expression.
pub fn db_rewrite(
    db: &DatabaseF,
    rel: &str,
    f: impl FnOnce(&RelationF) -> Result<RelationF>,
) -> Result<DatabaseF> {
    let r = db.relation(rel)?;
    let r2 = f(&r)?;
    Ok(db.with_entry(rel, FnValue::from(r2)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::filter_attr;
    use crate::testutil::retail_db;
    use fdm_expr::GT;

    #[test]
    fn fig10_insert_update_delete() {
        let db = retail_db();

        // customers[7] = {'name':'Tom', 'age':42}
        let db1 = db_upsert(
            &db,
            "customers",
            Value::Int(7),
            TupleF::builder("t")
                .attr("name", "Tom")
                .attr("age", 42)
                .build(),
        )
        .unwrap();
        assert_eq!(db1.relation("customers").unwrap().len(), 4);

        // customers.add({'name':'Stephen','age':28}) — auto id
        let (db2, key) = db_add(
            &db1,
            "customers",
            TupleF::builder("t")
                .attr("name", "Stephen")
                .attr("age", 28)
                .build(),
        )
        .unwrap();
        assert_eq!(key, Value::Int(8), "max key 7 + 1");

        // customers[7] = {'name':'Tom','age':49} — replace
        let db3 = db_upsert(
            &db2,
            "customers",
            Value::Int(7),
            TupleF::builder("t")
                .attr("name", "Tom")
                .attr("age", 49)
                .build(),
        )
        .unwrap();

        // customers[7]['age'] = 50
        let db4 = db_update_attr(&db3, "customers", &Value::Int(7), "age", 50).unwrap();
        assert_eq!(
            db4.relation("customers")
                .unwrap()
                .lookup(&Value::Int(7))
                .unwrap()
                .get("age")
                .unwrap(),
            Value::Int(50)
        );

        // del customers[7]
        let db5 = db_delete(&db4, "customers", &Value::Int(7)).unwrap();
        assert!(db5
            .relation("customers")
            .unwrap()
            .lookup(&Value::Int(7))
            .is_none());

        // every step was persistent: the original still has 3 customers
        assert_eq!(db.relation("customers").unwrap().len(), 3);
    }

    #[test]
    fn fig11_balance_transfer_steps() {
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
        let db = DatabaseF::new("bank").with_relation(accounts);

        // accounts[42]['balance'] -= 100 ; accounts[84]['balance'] += 100
        let db1 = db_modify_attr(&db, "accounts", &Value::Int(42), "balance", |v| {
            v.sub(&Value::Int(100))
        })
        .unwrap();
        let db2 = db_modify_attr(&db1, "accounts", &Value::Int(84), "balance", |v| {
            v.add(&Value::Int(100))
        })
        .unwrap();
        let get = |d: &DatabaseF, id: i64| {
            d.relation("accounts")
                .unwrap()
                .lookup(&Value::Int(id))
                .unwrap()
                .get("balance")
                .unwrap()
        };
        assert_eq!(get(&db2, 42), Value::Int(900));
        assert_eq!(get(&db2, 84), Value::Int(600));
        // money conserved, original snapshot intact
        assert_eq!(get(&db, 42), Value::Int(1000));
    }

    #[test]
    fn db_assign_any_fql_expression() {
        // DB('old_customers') := filter(age > 42, customers)   (§4.4)
        let db = retail_db();
        let olds = filter_attr(&db.relation("customers").unwrap(), "age", GT, 42).unwrap();
        let db2 = db_assign(&db, "old_customers", FnValue::from(olds));
        assert_eq!(db2.relation("old_customers").unwrap().len(), 2);
        assert!(!db.contains("old_customers"));
    }

    #[test]
    fn db_rewrite_replaces_whole_relation() {
        // "replace customers by customers older than 42" — one expression
        let db = retail_db();
        let db2 = db_rewrite(&db, "customers", |c| filter_attr(c, "age", GT, 42)).unwrap();
        assert_eq!(db2.relation("customers").unwrap().len(), 2);
        assert_eq!(db.relation("customers").unwrap().len(), 3);
    }

    #[test]
    fn errors_propagate_cleanly() {
        let db = retail_db();
        assert!(db_delete(&db, "customers", &Value::Int(99)).is_err());
        assert!(db_update_attr(&db, "nope", &Value::Int(1), "x", 1).is_err());
        assert!(db_insert(
            &db,
            "customers",
            Value::Int(1),
            TupleF::builder("dup").build()
        )
        .is_err());
    }
}
