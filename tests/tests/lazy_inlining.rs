//! Lazy key inlining must be **observably invisible**: a `Query::Scan`
//! under a `Filter`, and the right side of a `Query::Join`, read the key
//! off `(key, tuple)` and inline it only into rows they emit — and the
//! result has to be byte-identical (relation name, key attributes, keys,
//! tuple names, attributes in declaration order, first error) to the eager
//! composition `filter_bound(&with_inlined_keys(rel)?, pred)` and to a join
//! over two eagerly inlined relations.

use fdm_core::{DatabaseF, FdmError, Name, RelationBuilder, RelationF, TupleF, Value};
use fdm_expr::{parse, Expr, Params};
use fdm_fql::filter::with_inlined_keys;
use fdm_fql::{filter_bound, Query};

/// A tuple's attributes in declaration order.
type Attrs = Vec<(Name, Value)>;

/// Everything observable about a relation.
#[derive(Debug, PartialEq)]
struct Exact {
    name: String,
    key_attrs: Vec<Name>,
    /// `(key, tuple name, attributes)`.
    rows: Vec<(Value, String, Attrs)>,
}

fn exact(rel: &RelationF) -> Exact {
    Exact {
        name: rel.name().to_string(),
        key_attrs: rel.key_attrs().to_vec(),
        rows: rel
            .tuples()
            .unwrap()
            .into_iter()
            .map(|(k, t)| (k, t.name().to_string(), t.materialize().unwrap()))
            .collect(),
    }
}

/// Parses `src`, binding `$k` where it appears.
fn pred(src: &str, k: i64) -> Expr {
    let params = if src.contains("$k") {
        Params::new().set("k", k)
    } else {
        Params::new()
    };
    params.bind(&parse(src).unwrap()).unwrap()
}

/// Asserts fused ≡ eager for one predicate over one relation of `db`,
/// outputs or first errors alike, and returns the fused row count.
fn assert_filter_equiv(db: &DatabaseF, rel: &str, pred: &Expr) -> Option<usize> {
    let fused = Query::scan(rel).filter_expr(pred.clone()).eval(db);
    let eager = with_inlined_keys(&db.relation(rel).unwrap()).and_then(|r| filter_bound(&r, pred));
    match (fused, eager) {
        (Ok(fused), Ok(eager)) => {
            assert_eq!(exact(&fused), exact(&eager), "{rel}: filter({pred})");
            Some(fused.len())
        }
        (Err(fused), Err(eager)) => {
            assert_eq!(
                fused.to_string(),
                eager.to_string(),
                "{rel}: filter({pred}) must fail on the same tuple with the same error"
            );
            None
        }
        (fused, eager) => panic!(
            "{rel}: filter({pred}) diverges: fused {:?}, eager {:?}",
            fused.map(|r| r.len()),
            eager.map(|r| r.len())
        ),
    }
}

fn person(cid: i64) -> TupleF {
    TupleF::builder(format!("c{cid}"))
        .attr("name", format!("n{cid}"))
        .attr("age", 20 + (cid * 7) % 50)
        .build()
}

fn db() -> DatabaseF {
    // keys live only in the function input, as the builders store them
    let mut plain = RelationBuilder::new("plain", &["cid"]);
    // every tuple already carries its key: the scan's pass-through case
    let mut carried = RelationBuilder::new("carried", &["cid"]);
    // every third tuple carries it (under a *different* value than its key,
    // which inlining must leave alone)
    let mut mixed = RelationBuilder::new("mixed", &["cid"]);
    // a computed attribute that reads the key the tuple does not store
    let mut computed = RelationBuilder::new("computed", &["cid"]);
    // a computed attribute that fails from one key on, naming the key
    let mut failing = RelationBuilder::new("failing", &["cid"]);
    for cid in 1..=40i64 {
        plain.push(Value::Int(cid), person(cid));
        carried.push(Value::Int(cid), person(cid).with_attr("cid", cid));
        let t = person(cid);
        mixed.push(
            Value::Int(cid),
            if cid % 3 == 0 {
                t.with_attr("cid", cid + 100)
            } else {
                t
            },
        );
        computed.push(
            Value::Int(cid),
            TupleF::builder("c")
                .attr("age", 20 + cid)
                .computed("twice", |t| t.get("cid")?.mul(&Value::Int(2)))
                .build(),
        );
        failing.push(
            Value::Int(cid),
            TupleF::builder("c")
                .attr("age", 20 + cid)
                .computed("fragile", |t| match t.get("cid")? {
                    Value::Int(cid) if cid >= 17 => Err(FdmError::Other(format!("boom at {cid}"))),
                    other => Ok(other),
                })
                .build(),
        );
    }
    // composite keys: `(a, b)`; a third of the tuples carry `a` already
    let mut pairs = RelationBuilder::new("pairs", &["a", "b"]);
    for a in 1..=6i64 {
        for b in 1..=5i64 {
            let t = TupleF::builder("p").attr("w", a * b).build();
            pairs.push(
                Value::list([Value::Int(a), Value::Int(b)]),
                if (a + b) % 3 == 0 {
                    t.with_attr("a", a)
                } else {
                    t
                },
            );
        }
    }
    // what the plan joins against: orders keyed by oid, naming a customer
    // and an (a, b) pair
    let mut orders = RelationBuilder::new("orders", &["oid"]);
    for oid in 1..=60i64 {
        orders.push(
            Value::Int(oid),
            TupleF::builder("o")
                .attr("cid", 1 + (oid * 5) % 45)
                .attr("b", 1 + oid % 6)
                .attr("twice", 2 * (1 + oid % 40))
                .build(),
        );
    }
    [plain, carried, mixed, computed, failing, pairs, orders]
        .into_iter()
        .fold(DatabaseF::new("lazy"), |db, b| {
            db.with_relation(b.build().unwrap())
        })
}

#[test]
fn scan_under_filter_matches_eager_inlining() {
    let db = db();
    for rel in ["plain", "carried", "mixed"] {
        // on the key, on a stored attribute, on both
        let kept = assert_filter_equiv(&db, rel, &pred("cid > $k", 25));
        assert!(
            kept.is_some_and(|n| n > 0),
            "{rel}: key predicate keeps rows"
        );
        assert_filter_equiv(&db, rel, &pred("age > $k", 40));
        assert_filter_equiv(&db, rel, &pred("cid > $k and age > 30", 10));
        assert_filter_equiv(&db, rel, &pred("age > 30 or cid == $k", 3));
        // nothing kept, everything kept
        assert_eq!(assert_filter_equiv(&db, rel, &pred("1 > 2", 0)), Some(0));
        assert_eq!(assert_filter_equiv(&db, rel, &pred("age > 0", 0)), Some(40));
    }
    // composite keys: either part, both, and a stored attribute
    assert_eq!(
        assert_filter_equiv(&db, "pairs", &pred("b == 2", 0)),
        Some(6)
    );
    assert_eq!(
        assert_filter_equiv(&db, "pairs", &pred("a == 2", 0)),
        Some(5)
    );
    assert_filter_equiv(&db, "pairs", &pred("a >= 3 and b < $k", 4));
    assert_filter_equiv(&db, "pairs", &pred("w > 10", 0));
    // computed attributes see the inlined key, named by the predicate or not
    assert_eq!(
        assert_filter_equiv(&db, "computed", &pred("twice > $k", 60)),
        Some(10)
    );
    assert_filter_equiv(&db, "computed", &pred("age > 30 and twice < 70", 0));
    assert_filter_equiv(&db, "computed", &pred("cid > 5 and twice < 70", 0));
}

#[test]
fn scan_under_filter_fails_like_eager_inlining() {
    let db = db();
    // a type error on the first tuple, on a stored and on a key attribute
    for src in ["name > 5", "cid > 'x'", "age + name > 1"] {
        for rel in ["plain", "carried", "mixed"] {
            assert_eq!(assert_filter_equiv(&db, rel, &pred(src, 0)), None);
        }
    }
    // an attribute no tuple has, and one only some have
    assert_eq!(
        assert_filter_equiv(&db, "plain", &pred("nope == 1", 0)),
        None
    );
    assert_eq!(assert_filter_equiv(&db, "pairs", &pred("c == 1", 0)), None);
    // a computed attribute failing mid-relation: same tuple, same message
    let failing = pred("fragile > 3", 0);
    assert_eq!(assert_filter_equiv(&db, "failing", &failing), None);
    let err = Query::scan("failing")
        .filter_expr(failing)
        .eval(&db)
        .unwrap_err();
    assert!(err.to_string().contains("boom at 17"), "{err}");
    // short-circuiting keeps the failing attribute out of reach
    let guarded = pred("age < 30 and fragile > 3", 0);
    assert_eq!(assert_filter_equiv(&db, "failing", &guarded), Some(6));
}

/// `Query::Join` as the executor ran it before: both sides eagerly inlined,
/// every match materialized from the inlined tuples. Rows in emission
/// order, attributes in declaration order.
fn eager_join_rows(
    db: &DatabaseF,
    left: &str,
    right: &str,
    left_attr: &str,
    right_attr: &str,
) -> fdm_core::Result<Vec<Attrs>> {
    let left = with_inlined_keys(db.relation(left)?.as_ref())?;
    let inlined = with_inlined_keys(db.relation(right)?.as_ref())?;
    let mut rows = Vec::new();
    for (_, lt) in left.tuples()? {
        let on = lt.get(left_attr)?;
        for (_, rt) in inlined.tuples()? {
            if rt.get(right_attr)? == on {
                let mut attrs = lt.materialize()?;
                for (n, v) in rt.materialize()? {
                    attrs.push((Name::from(format!("{right}.{n}")), v));
                }
                rows.push(attrs);
            }
        }
    }
    Ok(rows)
}

/// Asserts the plan join ≡ the eager join: the same rows with the same
/// attribute order, each under its canonical id, or the same first error.
fn assert_join_equiv(db: &DatabaseF, right: &str, left_attr: &str, right_attr: &str) -> usize {
    let lazy = Query::scan("orders")
        .join(right, left_attr, right_attr)
        .eval(db);
    let eager = eager_join_rows(db, "orders", right, left_attr, right_attr);
    let what = format!("orders.{left_attr} = {right}.{right_attr}");
    let (lazy, eager) = match (lazy, eager) {
        (Ok(lazy), Ok(eager)) => (lazy, eager),
        (Err(lazy), Err(eager)) => {
            assert_eq!(lazy.to_string(), eager.to_string(), "{what}");
            return 0;
        }
        (lazy, eager) => panic!(
            "{what} diverges: lazy {:?}, eager {:?}",
            lazy.map(|r| r.len()),
            eager.map(|r| r.len())
        ),
    };
    assert_eq!(lazy.len(), eager.len(), "{what}: cardinality");
    // ids are a function of row data: file the eager rows under theirs
    let mut expected: Vec<(Value, Attrs)> = eager
        .into_iter()
        .map(|attrs| {
            let hash = TupleF::from_parts("j", attrs.clone())
                .fingerprint()
                .unwrap()
                .hash();
            (Value::list([Value::Int(hash as i64), Value::Int(0)]), attrs)
        })
        .collect();
    expected.sort_by(|a, b| a.0.cmp(&b.0));
    let got: Vec<(Value, Attrs)> = lazy
        .tuples()
        .unwrap()
        .into_iter()
        .map(|(k, t)| {
            assert_eq!(t.name(), "j", "{what}: row name");
            (k, t.materialize().unwrap())
        })
        .collect();
    assert_eq!(got, expected, "{what}: rows, ids or attribute order");
    lazy.len()
}

#[test]
fn join_right_side_matches_eager_inlining() {
    let db = db();
    // on the right side's key, stored nowhere, everywhere, or here and there
    assert!(assert_join_equiv(&db, "plain", "cid", "cid") > 0);
    assert!(assert_join_equiv(&db, "carried", "cid", "cid") > 0);
    // `mixed` stores cid + 100 where it stores one at all: the stored value
    // wins over the key, exactly as inlining leaves it alone
    assert!(assert_join_equiv(&db, "mixed", "cid", "cid") > 0);
    // on a stored attribute, the key still inlined into matched rows
    assert!(assert_join_equiv(&db, "plain", "cid", "age") > 0);
    // on the second part of a composite key
    assert_eq!(assert_join_equiv(&db, "pairs", "b", "b"), 50 * 6);
    assert!(assert_join_equiv(&db, "pairs", "b", "a") > 0);
    // on a computed attribute that reads the key
    assert_eq!(assert_join_equiv(&db, "computed", "twice", "twice"), 60);
    // a join attribute the right side does not have; a failing computed one
    assert_eq!(assert_join_equiv(&db, "plain", "cid", "nope"), 0);
    assert_eq!(assert_join_equiv(&db, "failing", "cid", "fragile"), 0);
}
