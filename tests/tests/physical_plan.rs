//! The physical executor under `Query::eval` must answer **exactly** what a
//! materializing reference does: every operator over `tuples()` and
//! `TupleF::get`, each building its whole output before its parent runs —
//! the shape of the executor before PR 21. Counts and identities, no
//! clocks:
//!
//! * (a) random scan / filter / project / join / group_agg / order_by /
//!   limit plans over heterogeneous relations — computed attributes,
//!   composite keys, tuples that carry (or contradict) their key — give the
//!   same relation (name, key attributes, keys, tuple names, attributes in
//!   declaration order) or the same first error, and the same
//!   `QueryStats.produced`, as declared and as optimized;
//! * (b) the edges named on their own: a join on a key some tuple
//!   contradicts (the hash path, not a lookup), missing attributes behind
//!   `and`/`or`, and `Sum` over a string failing in group-key order;
//! * (c) no intermediate is built: a row handed between two streaming
//!   operators costs at most its value vector.
//!
//! The compiled evaluator is pinned against the by-name one case by case in
//! `crates/expr/src/eval.rs`. CI runs (a) at `PROPTEST_CASES=512`.

use fdm_core::{DatabaseF, FdmError, Name, RelationBuilder, Result, TupleF, Value};
use fdm_expr::{parse, BinOp, Expr, ExprError, Params};
use fdm_fql::{AggSpec, Order, Query};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

// ------------------------------------------------------------ the fixture

/// Attribute names the generated plans reach for: present everywhere, here
/// and there, computed, key-only, qualified by a join, or nowhere.
const ATTRS: [&str; 12] = [
    "id", "a", "b", "s", "c", "k1", "k2", "rk", "v", "r.v", "r.rk", "x",
];

/// `l` keyed by `id`: tuples differ in attribute set and order, a few
/// carry an `id` of their own (contradicting their key), every fourth
/// computes `c = 2·a` (failing where `a` is missing or a string). `p`
/// keyed by `(k1, k2)`, a third carrying `k1`. `r` keyed by `rk`, which no
/// tuple stores (a join on it is a lookup); `rc` the same but one tuple
/// stores a contradicting `rk` (a join on it must hash); `rx` computing.
fn db() -> DatabaseF {
    let mut l = RelationBuilder::new("l", &["id"]);
    for i in 0..14i64 {
        let mut t = TupleF::builder(format!("l{i}"));
        if i % 5 != 4 {
            t = t.attr(
                "a",
                if i % 7 == 6 {
                    Value::str("x")
                } else {
                    Value::Int(i % 4)
                },
            );
        }
        if i % 3 == 0 {
            t = t.attr("s", ["x", "y"][i as usize % 2]);
        }
        t = t.attr("b", i % 3);
        if i % 6 == 5 {
            t = t.attr("id", 100 + i);
        }
        if i % 4 == 1 {
            t = t.computed("c", |t| t.get("a")?.mul(&Value::Int(2)));
        }
        l.push(Value::Int(i), t.build());
    }
    let mut p = RelationBuilder::new("p", &["k1", "k2"]);
    for k1 in 0..3i64 {
        for k2 in 0..4i64 {
            let mut t = TupleF::builder("p").attr("v", k1 * k2).attr("a", k2 % 2);
            if (k1 + k2) % 3 == 0 {
                t = t.attr("k1", k1 + 1);
            }
            p.push(Value::list([Value::Int(k1), Value::Int(k2)]), t.build());
        }
    }
    let right = |name: &str, contradict: bool, compute: bool| {
        let mut r = RelationBuilder::new(name, &["rk"]);
        for k in 0..5i64 {
            let mut t = TupleF::builder("r").attr("v", 10 * k).attr("a", k % 3);
            if contradict && k == 2 {
                t = t.attr("rk", 3);
            }
            if compute && k % 2 == 0 {
                t = t.computed("w", |t| t.get("v")?.add(&Value::Int(1)));
            }
            r.push(Value::Int(k), t.build());
        }
        r.build().unwrap()
    };
    DatabaseF::new("physical")
        .with_relation(l.build().unwrap())
        .with_relation(p.build().unwrap())
        .with_relation(right("r", false, false))
        .with_relation(right("rc", true, false))
        .with_relation(right("rx", false, true))
}

// ------------------------------------------ the materializing reference

/// A relation as the reference builds it.
struct Rel {
    name: String,
    keys: Vec<Name>,
    rows: Vec<(Value, Arc<TupleF>)>,
}

/// A scan: the relation with each tuple's missing key attributes appended
/// one by one, as `with_inlined_keys` always did.
fn scanned(db: &DatabaseF, name: &str) -> Result<Rel> {
    let rel = db.relation(name)?;
    let keys = rel.key_attrs().to_vec();
    let mut rows = Vec::new();
    for (key, t) in rel.tuples()? {
        let parts = match &key {
            Value::List(parts) if keys.len() > 1 && parts.len() == keys.len() => parts.to_vec(),
            whole if keys.len() == 1 => vec![whole.clone()],
            _ => Vec::new(),
        };
        let mut t = t;
        for (name, part) in keys.iter().zip(parts) {
            if !t.has_attr(name) {
                t = Arc::new(t.with_attr(name, part));
            }
        }
        rows.push((key, t));
    }
    Ok(Rel {
        name: rel.name().to_string(),
        keys,
        rows,
    })
}

/// The by-name evaluator, written out for the expressions generated here.
fn eval(e: &Expr, t: &TupleF) -> std::result::Result<Value, ExprError> {
    let err = |e: FdmError| ExprError::Eval {
        message: e.to_string(),
    };
    let truth = |v: Value, what: &str| v.as_bool(what).map_err(err);
    Ok(match e {
        Expr::Attr(a) => t.get(a).map_err(err)?,
        Expr::Lit(v) => v.clone(),
        Expr::Bin {
            op: BinOp::And,
            lhs,
            rhs,
        } => Value::Bool(
            truth(eval(lhs, t)?, "left operand of 'and'")?
                && truth(eval(rhs, t)?, "right operand of 'and'")?,
        ),
        Expr::Bin {
            op: BinOp::Or,
            lhs,
            rhs,
        } => Value::Bool(
            truth(eval(lhs, t)?, "left operand of 'or'")?
                || truth(eval(rhs, t)?, "right operand of 'or'")?,
        ),
        Expr::Bin {
            op: BinOp::Add,
            lhs,
            rhs,
        } => eval(lhs, t)?.add(&eval(rhs, t)?).map_err(err)?,
        Expr::Bin { op, lhs, rhs } => {
            Value::Bool(fdm_expr::compare(*op, &eval(lhs, t)?, &eval(rhs, t)?)?)
        }
        other => panic!("not generated here: {other}"),
    })
}

fn keeps(pred: &Expr, t: &TupleF) -> Result<bool> {
    match eval(pred, t)? {
        Value::Bool(b) => Ok(b),
        other => Err(FdmError::from(ExprError::Eval {
            message: format!(
                "predicate evaluated to a {} value, expected bool",
                other.value_type()
            ),
        })),
    }
}

/// `[fingerprint hash, rank]` ids, in id order.
fn canonical(rows: Vec<Arc<TupleF>>) -> Result<Vec<(Value, Arc<TupleF>)>> {
    let mut keyed = Vec::new();
    for t in rows {
        let hash = t.fingerprint()?.hash() as i64;
        keyed.push((hash, t.data_key()?, t));
    }
    keyed.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    let mut out: Vec<(Value, Arc<TupleF>)> = Vec::new();
    let mut prev: Option<(i64, i64)> = None;
    for (hash, _, t) in keyed {
        let rank = match prev {
            Some((h, rank)) if h == hash => rank + 1,
            _ => 0,
        };
        prev = Some((hash, rank));
        out.push((Value::list([Value::Int(hash), Value::Int(rank)]), t));
    }
    Ok(out)
}

fn fold(spec: &AggSpec, members: &[Arc<TupleF>]) -> Result<Value> {
    match spec {
        AggSpec::Count => Ok(Value::Int(members.len() as i64)),
        AggSpec::Sum(a) => members
            .iter()
            .try_fold(Value::Int(0), |acc, t| acc.add(&t.get(a)?)),
        AggSpec::Min(a) | AggSpec::Max(a) => {
            let mut best: Option<Value> = None;
            for t in members {
                let v = t.get(a)?;
                let better = match (&best, spec) {
                    (None, _) => true,
                    (Some(b), AggSpec::Min(_)) => v < *b,
                    (Some(b), _) => v > *b,
                };
                if better {
                    best = Some(v);
                }
            }
            best.ok_or_else(|| FdmError::Other(format!("min/max({a}) over empty group")))
        }
        AggSpec::Avg(a) => {
            let mut sum = 0.0;
            for t in members {
                sum += t.get(a)?.as_float("avg input")?;
            }
            Ok(Value::Float(sum / members.len() as f64))
        }
    }
}

/// Runs `q` the materializing way, pushing each operator's row count
/// (innermost first).
fn reference(q: &Query, db: &DatabaseF, keyed: bool, counts: &mut Vec<usize>) -> Result<Rel> {
    let rel = match q {
        Query::Scan { rel } => scanned(db, rel)?,
        Query::Filter { input, pred } => {
            let mut rel = reference(input, db, keyed, counts)?;
            let mut kept = Vec::new();
            for (key, t) in rel.rows {
                if keeps(pred, &t)? {
                    kept.push((key, t));
                }
            }
            rel.rows = kept;
            rel
        }
        Query::Project { input, attrs } => {
            let mut rel = reference(input, db, keyed, counts)?;
            let keep: Vec<&str> = attrs.iter().map(String::as_str).collect();
            let rows = rel.rows.into_iter().map(|(key, t)| {
                let projected = t.project(&keep)?;
                Ok((key, Arc::new(projected)))
            });
            rel.rows = rows.collect::<Result<_>>()?;
            rel
        }
        Query::Join {
            input,
            rel,
            input_attr,
            rel_attr,
        } => {
            let left = reference(input, db, false, counts)?;
            let right = scanned(db, rel)?;
            // the whole right side is hashed before the first probe
            let ons = right.rows.iter().map(|(_, t)| t.get(rel_attr));
            let ons: Vec<Value> = ons.collect::<Result<_>>()?;
            let mut rows = Vec::new();
            for (_, lt) in &left.rows {
                let on = lt.get(input_attr)?;
                let values = lt.materialize()?;
                for ((_, rt), rv) in right.rows.iter().zip(&ons) {
                    if *rv == on {
                        let mut attrs = values.clone();
                        for (n, v) in rt.materialize()? {
                            attrs.push((Name::from(format!("{rel}.{n}").as_str()), v));
                        }
                        rows.push(Arc::new(TupleF::from_parts("j", attrs)));
                    }
                }
            }
            let rows = match keyed {
                true => canonical(rows)?,
                false => (0..).map(Value::Int).zip(rows).collect(),
            };
            Rel {
                name: "join".into(),
                keys: vec![Name::from("row")],
                rows,
            }
        }
        Query::GroupAgg { input, by, aggs } => {
            let input = reference(input, db, true, counts)?;
            if by.is_empty() {
                return Err(FdmError::Other(
                    "group: 'by' must name at least one attribute (use aggregate for a global fold)"
                        .into(),
                ));
            }
            let mut groups: BTreeMap<Value, Vec<Arc<TupleF>>> = BTreeMap::new();
            for (_, t) in input.rows {
                let mut parts = Vec::new();
                for attr in by {
                    parts.push(t.get(attr)?);
                }
                let key = match parts.len() {
                    1 => parts.pop().unwrap(),
                    _ => Value::list(parts),
                };
                groups.entry(key).or_default().push(t);
            }
            let mut rows = Vec::new();
            for (key, members) in groups {
                let mut t = TupleF::builder(format!("agg[{key}]"));
                match &key {
                    Value::List(parts) if by.len() > 1 => {
                        for (attr, part) in by.iter().zip(parts.iter()) {
                            t = t.attr(attr, part.clone());
                        }
                    }
                    whole => t = t.attr(&by[0], whole.clone()),
                }
                for (name, spec) in aggs {
                    t = t.attr(name, fold(spec, &members)?);
                }
                rows.push((key, Arc::new(t.build())));
            }
            Rel {
                name: "aggregates".into(),
                keys: by.iter().map(|b| Name::from(b.as_str())).collect(),
                rows,
            }
        }
        Query::OrderBy { input, attr, order } => {
            let input = reference(input, db, true, counts)?;
            let mut entries = Vec::new();
            for (key, t) in input.rows {
                entries.push((t.get(attr)?, key, t));
            }
            entries.sort_by(|a, b| {
                let ord = (&a.0, &a.1).cmp(&(&b.0, &b.1));
                match order {
                    Order::Asc => ord,
                    Order::Desc => ord.reverse(),
                }
            });
            let ranks = (0..).map(Value::Int);
            Rel {
                name: format!("{}_by_{attr}", input.name),
                keys: vec![Name::from("rank")],
                rows: ranks.zip(entries.into_iter().map(|e| e.2)).collect(),
            }
        }
        Query::Limit { input, k } => {
            let mut rel = reference(input, db, true, counts)?;
            rel.rows.truncate(*k);
            rel
        }
        Query::Invalid { message } => return Err(FdmError::Expr(message.clone())),
    };
    counts.push(rel.rows.len());
    Ok(rel)
}

// ---------------------------------------------------------- comparison

/// A tuple's attributes in declaration order — or what materializing it
/// reports (a projected computed attribute may have lost its input).
type Attrs = std::result::Result<Vec<(Name, Value)>, String>;

/// Everything observable about a relation.
#[derive(Debug, PartialEq)]
struct Exact {
    name: String,
    key_attrs: Vec<Name>,
    /// `(key, tuple name, attributes)`.
    rows: Vec<(Value, String, Attrs)>,
}

fn exact(name: &str, keys: &[Name], rows: Vec<(Value, Arc<TupleF>)>) -> Exact {
    let attrs = |t: &TupleF| t.materialize().map_err(|e| e.to_string());
    Exact {
        name: name.to_string(),
        key_attrs: keys.to_vec(),
        rows: rows
            .into_iter()
            .map(|(k, t)| (k, t.name().to_string(), attrs(&t)))
            .collect(),
    }
}

/// The executor's answer to `q` against the reference's: the same
/// relation and row counts per operator, or the same first error. Returns
/// whether the plan succeeded.
fn assert_equivalent(q: &Query, db: &DatabaseF) -> bool {
    let mut counts = Vec::new();
    let expected = reference(q, db, true, &mut counts);
    match (q.eval_with_stats(db), expected) {
        (Ok((got, stats)), Ok(want)) => {
            let want_exact = exact(&want.name, &want.keys, want.rows);
            let got_exact = exact(got.name(), got.key_attrs(), got.tuples().unwrap());
            assert_eq!(got_exact, want_exact, "{}", q.explain());
            // operators innermost first, described as `explain` does
            let explained = q.explain();
            let described = explained.lines().rev().map(|l| l.trim().to_string());
            let produced: Vec<(String, usize)> = described.zip(counts).collect();
            assert_eq!(stats.produced, produced, "{explained}");
            true
        }
        (Err(got), Err(want)) => {
            assert_eq!(got.to_string(), want.to_string(), "{}", q.explain());
            false
        }
        (got, want) => panic!(
            "{} diverges: executor {:?}, reference {:?}",
            q.explain(),
            got.map(|(r, _)| r.len()),
            want.map(|r| r.rows.len())
        ),
    }
}

// --------------------------------------------------------- generated plans

fn attr(i: u8) -> &'static str {
    ATTRS[i as usize % ATTRS.len()]
}

fn pred(shape: u8, a: u8, b: u8) -> Expr {
    use BinOp::*;
    let (x, y) = (Expr::attr(attr(a)), Expr::attr(attr(b)));
    let int = |i: i64| Expr::lit(i);
    match shape % 6 {
        0 => Expr::bin(Gt, x, int(1)),
        1 => Expr::bin(Eq, x, Expr::lit("x")),
        2 => Expr::bin(And, Expr::bin(Ge, x, int(1)), Expr::bin(Eq, y, int(1))),
        3 => Expr::bin(Or, Expr::bin(Lt, x, int(2)), Expr::bin(Gt, y, int(5))),
        4 => Expr::bin(Gt, Expr::bin(Add, x, int(1)), y),
        _ => Expr::bin(Ne, x, int(i64::from(b % 3))),
    }
}

fn agg(kind: u8, a: u8) -> (String, AggSpec) {
    let input = attr(a).to_string();
    let spec = match kind % 5 {
        0 => AggSpec::Count,
        1 => AggSpec::Sum(input),
        2 => AggSpec::Min(input),
        3 => AggSpec::Max(input),
        _ => AggSpec::Avg(input),
    };
    (format!("g{kind}"), spec)
}

/// One operator on top of `q`, decoded from four draws.
fn push(q: Query, (op, a, b, c): (u8, u8, u8, u8)) -> Query {
    match op % 6 {
        0 => q.filter_expr(pred(c, a, b)),
        1 => {
            let keep: Vec<&str> = [a, b, c][..1 + c as usize % 3]
                .iter()
                .map(|&i| attr(i))
                .collect();
            q.project(&keep)
        }
        2 => {
            let right = ["r", "rc", "rx", "p", "l"][b as usize % 5];
            let rel_attr = ["rk", "rk", "a", "v", "k1", "id"][c as usize % 6];
            q.join(right, attr(a), rel_attr)
        }
        3 => {
            let by: Vec<&str> = [a, b][..1 + c as usize % 2]
                .iter()
                .map(|&i| attr(i))
                .collect();
            let aggs = [agg(c, b), agg(c / 5 + 1, a)];
            let aggs: Vec<(&str, AggSpec)> =
                aggs.iter().map(|(n, s)| (n.as_str(), s.clone())).collect();
            q.group_agg(&by, &aggs)
        }
        4 => q.order_by(attr(a), if b % 2 == 0 { Order::Asc } else { Order::Desc }),
        _ => q.limit(c as usize % 6),
    }
}

proptest! {
    /// Random plans over the heterogeneous fixture, as declared and as
    /// optimized: same relation and per-operator counts, or the same first
    /// error.
    #[test]
    fn executor_matches_the_materializing_reference(
        leaf in 0u8..3,
        ops in prop::collection::vec((0u8..6, 0u8..12, 0u8..12, 0u8..12), 0..5),
    ) {
        let db = db();
        let q = ops
            .into_iter()
            .fold(Query::scan(["l", "p", "r"][leaf as usize]), push);
        assert_equivalent(&q, &db);
        assert_equivalent(&q.optimize_for(&db), &db);
    }
}

#[test]
fn generated_plans_reach_every_outcome() {
    // the generator is not vacuous: over the first cases plans both
    // succeed with rows and fail, through every operator
    let db = db();
    let mut rng = proptest::test_runner::TestRng::from_name("reach");
    let (mut ok, mut failed) = (0, 0);
    for _ in 0..400 {
        let draw = |rng: &mut proptest::test_runner::TestRng| {
            let mut d = || (rng.below(12)) as u8;
            (d() % 6, d(), d(), d())
        };
        let n = rng.below(5);
        let mut q = Query::scan(["l", "p", "r"][rng.below(3) as usize]);
        for _ in 0..n {
            q = push(q, draw(&mut rng));
        }
        match assert_equivalent(&q, &db) {
            true => ok += 1,
            false => failed += 1,
        }
    }
    assert!(ok > 100 && failed > 100, "{ok} succeeded, {failed} failed");
}

// ------------------------------------------------------------ the edges

#[test]
fn a_key_some_tuple_contradicts_is_joined_by_hash() {
    let db = db();
    // `rc`'s tuple under key 2 stores rk = 3, so a join on rk matches it —
    // with key 3's — for v = 3, and nothing for v = 2: what a lookup by
    // key would not answer
    let q = Query::scan("p").join("rc", "v", "rk");
    assert!(assert_equivalent(&q, &db));
    let joined = q.eval(&db).unwrap();
    let matched = |v: i64| {
        let rows = joined.tuples().unwrap().into_iter();
        let rows = rows.filter(|(_, t)| t.get("v").unwrap() == Value::Int(v));
        let mut keys: Vec<Value> = rows.map(|(_, t)| t.get("rc.rk").unwrap()).collect();
        keys.sort();
        keys
    };
    assert!(matched(2).is_empty(), "key 2's tuple says rk = 3");
    assert_eq!(
        matched(3),
        vec![Value::Int(3); 2],
        "p(1, 3) × two rc tuples"
    );
    // the uncontradicted twin joins by lookup, one match per value
    let q = Query::scan("p").join("r", "v", "rk");
    assert!(assert_equivalent(&q, &db));
    assert!(assert_equivalent(
        &Query::scan("p").join("rx", "v", "rk"),
        &db
    ));
}

#[test]
fn missing_attributes_behind_and_or_fail_only_when_reached() {
    let db = db();
    for src in [
        "b > 5 and x == 1",
        "b < 5 or x == 1",
        "b > 1 and x == 1",
        "b < 1 or x == 1",
        "a > 0 and b == 1",
        "s == 'x' or a > 2",
    ] {
        let pred = parse(src).unwrap();
        let q = Query::scan("l")
            .filter_expr(pred.clone())
            .project(&["b", "id"]);
        assert_equivalent(&q, &db);
        // and over a join, where the attribute comes off the right side
        let q = Query::scan("l").join("r", "b", "rk").filter_expr(pred);
        assert_equivalent(&q, &db);
    }
    // the first two never reach `x`; the next two do
    let ok = |src: &str| {
        Query::scan("l")
            .filter(src, Params::new())
            .eval(&db)
            .is_ok()
    };
    assert!(ok("b > 5 and x == 1") && ok("b < 5 or x == 1"));
    assert!(!ok("b > 1 and x == 1") && !ok("b < 1 or x == 1"));
}

#[test]
fn a_sum_over_a_string_fails_first_in_group_key_order() {
    let db = db();
    // by b, group 0 holds l0, l3, l6 (a = "x"), l9 (no a), l12 and group 1
    // l1, l4 (no a), ...: in row order l4's missing `a` comes first, in
    // group-key order l6's string — and that is the error
    let aggs = [("n", AggSpec::Count), ("t", AggSpec::Sum("a".into()))];
    let q = Query::scan("l").group_agg(&["b"], &aggs);
    assert!(!assert_equivalent(&q, &db));
    let err = q.eval(&db).unwrap_err().to_string();
    assert!(err.contains("type mismatch"), "{err}");
    // a group key that cannot be read (l1 has no `s`) fails before an
    // aggregate that failed on an earlier row (l0 has no `c`)
    let q = Query::scan("l").group_agg(&["s"], &[("t", AggSpec::Sum("c".into()))]);
    assert!(!assert_equivalent(&q, &db));
    let err = q.eval(&db).unwrap_err().to_string();
    assert!(err.contains("no attribute 's'"), "{err}");
}

// -------------------------------------------- (c) no intermediate is built

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

/// `base` rows `0..n` joining a kept `r1` row, then `extra` rows joining a
/// dropped one; `r1` and `r2` are keyed by the join attributes and store
/// none of them, so both joins are lookups.
fn chain(n: i64, extra: i64) -> DatabaseF {
    let mut base = RelationBuilder::new("base", &["id"]);
    for i in 0..n + extra {
        let t = base.tuple("b");
        let t = t
            .attr("j1", i64::from(i >= n))
            .attr("j2", i % 4)
            .attr("pad", i);
        base.push(Value::Int(i), t.build());
    }
    let mut r1 = RelationBuilder::new("r1", &["k1"]);
    for k in 0..2i64 {
        let t = r1.tuple("r1").attr("keep", 1 - k).build();
        r1.push(Value::Int(k), t);
    }
    let mut r2 = RelationBuilder::new("r2", &["k2"]);
    for k in 0..4i64 {
        let t = r2.tuple("r2").attr("w", k * 10).build();
        r2.push(Value::Int(k), t);
    }
    DatabaseF::new("chain")
        .with_relation(base.build().unwrap())
        .with_relation(r1.build().unwrap())
        .with_relation(r2.build().unwrap())
}

fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_row_between_streaming_operators_costs_at_most_its_values() {
    // filter → project → join → (a filter on the join's right side, which
    // the optimizer cannot push below it) → join
    let q = Query::scan("base")
        .filter("pad >= 0", Params::new())
        .project(&["j1", "j2", "pad"])
        .join("r1", "j1", "k1")
        .join("r2", "j2", "k2")
        .filter_expr(Expr::bin(BinOp::Eq, Expr::attr("r1.keep"), Expr::lit(1)));
    const EXTRA: i64 = 300;
    let (small, big) = (chain(200, 0), chain(200, EXTRA));
    let q = q.optimize_for(&small);
    let plan = q.explain();
    let order: Vec<&str> = plan.lines().map(str::trim).collect();
    assert!(
        order[0].starts_with("join(r2")
            && order[1].starts_with("filter")
            && order[2].starts_with("join(r1"),
        "the discarding filter sits between the joins:\n{plan}"
    );
    let (a, in_small) = allocations(|| q.eval(&small).unwrap());
    let (b, in_big) = allocations(|| q.eval(&big).unwrap());
    assert_eq!(a.len(), b.len(), "the extra rows are all discarded");
    assert_eq!(a.len(), 200);
    // An extra row is handed on four times before it is dropped: the scan
    // and the filter pass the stored tuple itself, the projection and the
    // first join each a value vector — one allocation apiece. Built as
    // relations (the pre-PR 21 executor) each hand-off cost three: the
    // values, an `Arc<TupleF>` and a `PMap` node.
    let extra = in_big - in_small;
    assert!(
        extra <= 2 * EXTRA as usize,
        "{extra} allocations for {EXTRA} intermediate rows ({in_small} vs {in_big})"
    );
}
