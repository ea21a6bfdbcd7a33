//! Owned edits are isolated: `apply_op` edits one `DatabaseF` in place,
//! and every clone taken along the way keeps the contents it had.
//!
//! Random streams of upserts, deletes, assignments and drops run through
//! `apply_op` on plain, unique-constrained, hybrid and multi relations,
//! including ops that fail (constraint violations, absent keys, absent
//! entries, unsupported bodies). After every op the in-place database must
//! match the per-op persistent fold (`upsert_arc`, `delete`, `with_entry`,
//! `without_entry` on the previous value): the same first error, the same
//! contents and the same replaced tuple. A failing op leaves the database
//! as it was. At the end, every clone equals the model recorded when it
//! was taken, and both databases answer the same unique-index probes.

use fdm_core::{
    apply_op, Constraint, DatabaseF, Domain, FnValue, Name, Op, RelationF, Result, TupleF, Value,
    ValueType,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Entry names the ops address; the last one is never bound.
const NAMES: [&str; 5] = ["plain", "uniq", "hybrid", "multi", "ghost"];

fn person(email: Option<i64>, age: i64) -> TupleF {
    let t = TupleF::builder("p").attr("age", age);
    match email {
        Some(e) => t.attr("email", e).build(),
        None => t.build(),
    }
}

/// Keys `0..4`, each with its own email and age.
fn seeded(rel: RelationF) -> RelationF {
    (0..4).fold(rel, |r, k| {
        r.insert(Value::Int(k), person(Some(k), k)).unwrap()
    })
}

/// Two unique constraints and an attribute domain.
fn constrained(name: &str) -> RelationF {
    RelationF::new(name, &["id"])
        .with_constraint(Constraint::unique(&["email"]))
        .unwrap()
        .with_constraint(Constraint::attr_domain("age", Domain::IntRange(0, 20)))
        .unwrap()
        .with_constraint(Constraint::unique(&["email", "age"]))
        .unwrap()
}

/// The relation each bound name starts as (and an assignment rebinds it
/// to, shared with this template).
fn template(name: &str) -> RelationF {
    match name {
        "plain" => seeded(RelationF::new("plain", &["id"])),
        "uniq" => seeded(constrained("uniq")),
        "hybrid" => seeded(constrained("hybrid"))
            .with_fallback(Domain::Typed(ValueType::Int), |_| Ok(Value::Unit))
            .unwrap(),
        _ => seeded(RelationF::new("plain", &["id"]))
            .index_by("age")
            .unwrap(),
    }
}

/// What a database holds, comparably: every relation entry's stored
/// `(key, [email or unit, age])` rows, by entry name.
type Model = BTreeMap<String, Vec<(Value, Value)>>;

fn observe(db: &DatabaseF) -> Model {
    db.relations()
        .map(|(name, rel)| {
            let rows = rel
                .iter_stored()
                .map(|(k, t)| {
                    let email = t.try_get("email").unwrap_or(Value::Unit);
                    (k, Value::list([email, t.get("age").unwrap()]))
                })
                .collect();
            (name.to_string(), rows)
        })
        .collect()
}

/// The per-op persistent fold `apply_op` must equal, with the tuple the
/// op replaced in the stored map.
fn fold(db: &DatabaseF, op: &Op) -> Result<(DatabaseF, Option<Arc<TupleF>>)> {
    let stored = |rel: &Name, key: &Value| -> Result<Option<Arc<TupleF>>> {
        let r = db.relation(rel)?;
        Ok(if r.is_multi() {
            None
        } else {
            r.range(Some(key), Some(key)).pop().map(|(_, t)| t)
        })
    };
    Ok(match op {
        Op::Upsert { rel, key, tuple } => {
            let r = db
                .relation(rel)?
                .upsert_arc(key.clone(), Arc::clone(tuple))?;
            (db.with_entry(rel, r), stored(rel, key)?)
        }
        Op::Delete { rel, key } => {
            let r = db.relation(rel)?.delete(key)?;
            (db.with_entry(rel, r), stored(rel, key)?)
        }
        Op::Assign { name, value } => (db.with_entry(name, value.clone()), None),
        Op::Drop { name } => (db.without_entry(name)?, None),
    })
}

/// `(kind, entry, key, email or -1, age, clone?)`, over small spaces so
/// replaces, unique collisions, out-of-domain ages, absent keys and
/// absent entries all occur.
fn step_strategy() -> impl Strategy<Value = (u8, usize, i64, i64, i64, u8)> {
    (
        0u8..20,
        0usize..NAMES.len(),
        0i64..8,
        -1i64..6,
        -5i64..30,
        0u8..4,
    )
}

fn op_of((kind, entry, key, email, age, _): (u8, usize, i64, i64, i64, u8)) -> Op {
    let name = Name::from(NAMES[entry]);
    let key = Value::Int(key);
    match kind {
        0..=11 => Op::Upsert {
            rel: name,
            key,
            tuple: Arc::new(person((email >= 0).then_some(email), age)),
        },
        12..=16 => Op::Delete { rel: name, key },
        17 | 18 => Op::Assign {
            value: FnValue::from(template(NAMES[entry])),
            name,
        },
        _ => Op::Drop { name },
    }
}

fn same(a: &Option<Arc<TupleF>>, b: &Option<Arc<TupleF>>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        (a, b) => a.is_none() && b.is_none(),
    }
}

proptest! {
    #[test]
    fn in_place_edits_match_the_persistent_fold_and_spare_clones(
        steps in prop::collection::vec(step_strategy(), 1..64),
    ) {
        let start = NAMES[..4]
            .iter()
            .fold(DatabaseF::new("db"), |db, n| db.with_entry(n, template(n)));
        let start_model = observe(&start);
        let mut db = start.clone();
        let mut persistent = start.clone();
        let mut clones = vec![(start, start_model)];
        for step in steps {
            let op = op_of(step);
            let before = observe(&db);
            let got = apply_op(&mut db, &op);
            let want = fold(&persistent, &op);
            match (got, want) {
                (Ok(old), Ok((next, want_old))) => {
                    prop_assert!(same(&old, &want_old), "{op:?} replaced {old:?}, not {want_old:?}");
                    persistent = next;
                }
                (Err(got), Err(want)) => {
                    prop_assert_eq!(&got, &want, "{:?}", op);
                    prop_assert_eq!(observe(&db), before, "failed {:?} changed the database", op);
                }
                (got, want) => prop_assert!(
                    false,
                    "{op:?}: in place {:?} vs persistent {:?}",
                    got.err(),
                    want.err()
                ),
            }
            prop_assert_eq!(observe(&db), observe(&persistent), "after {:?}", op);
            if step.5 == 0 {
                clones.push((db.clone(), observe(&db)));
            }
        }
        for (clone, model) in &clones {
            prop_assert_eq!(&observe(clone), model, "a clone changed");
        }
        // the unique indexes answer alike: each email at a fresh key
        for name in &NAMES[..3] {
            for email in 0..6 {
                let op = Op::Upsert {
                    rel: Name::from(*name),
                    key: Value::Int(100),
                    tuple: Arc::new(person(Some(email), 5)),
                };
                let got = apply_op(&mut db.clone(), &op).err();
                let want = fold(&persistent, &op).err();
                prop_assert_eq!(got, want, "{} probe of email {}", name, email);
            }
        }
    }
}
