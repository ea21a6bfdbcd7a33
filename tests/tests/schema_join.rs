//! The Fig. 6 schema join against a nested-loop reference.
//!
//! `fdm_fql::join` probes a hash index of each relationship's entries,
//! resolves each distinct participant key once through a memo that checks
//! the last key first, and joins the entries 32 at a time. The reference
//! here does none of that: per working row it
//! scans every entry of the relationship in key order, checks the keys the
//! row has bound, looks every other participant up, and binds each
//! relation once. On random databases the two must agree on row ids,
//! attribute names and order, values, and the first error. `join_on` is
//! held to a nested loop over its conditions the same way.
//!
//! The databases chain one to three relationships over two to four
//! relations, with dangling keys at every position, a self-relationship,
//! participants and entries with computed attributes (one of which may
//! fail), tuples of several shapes, a relation with a computed fallback,
//! and now and then a relationship over a relation the database lacks.
//! Every relationship has at least 100 entries, so the 32-entry chunks
//! break mid-join.

use fdm_core::{
    DatabaseF, Domain, FdmError, FnValue, Name, Participant, RelationF, RelationshipBuilder,
    RelationshipF, Result, SharedDomain, TupleF, Value, ValueType,
};
use fdm_fql::{join, join_on, JoinOn};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A deterministic stream of choices (splitmix64).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }
}

/// A denormalized row: qualified attribute names and their values.
type Row = Vec<(String, Value)>;

/// The one attribute that may fail to compute, and where.
#[derive(Clone, Copy)]
struct Failing(Option<i64>);

impl Failing {
    /// `2 * a`, or an error at the failing key.
    fn double(self, key: i64) -> impl Fn(&TupleF) -> Result<Value> + Send + Sync + 'static {
        move |t| match self.0 == Some(key) {
            true => Err(FdmError::Other(format!("d fails at {key}"))),
            false => t.get("a")?.mul(&Value::Int(2)),
        }
    }
}

/// A tuple of one of four shapes: `a, b`, `b, a`, `a, b, c`, or `a, b`
/// and a computed `d`.
fn tuple(rng: &mut Rng, key: i64, groups: u64, failing: Failing) -> TupleF {
    let a = rng.below(groups) as i64;
    let b = format!("s{}", rng.below(5));
    let t = TupleF::builder("t");
    match rng.below(4) {
        0 => t.attr("a", a).attr("b", b),
        1 => t.attr("b", b).attr("a", a),
        2 => t.attr("a", a).attr("b", b).attr("c", key * 10),
        _ => t
            .attr("a", a)
            .attr("b", b)
            .computed("d", failing.double(key)),
    }
    .build()
}

/// Relation `name` keyed by `k` over some of `0..keys`; now and then a
/// computed fallback answers the two keys past the stored range.
fn relation(rng: &mut Rng, name: &str, keys: i64, groups: u64, failing: Failing) -> RelationF {
    let mut rel = RelationF::new(name, &["k"]);
    for k in 0..keys {
        if !rng.one_in(4) {
            rel = rel
                .insert(Value::Int(k), tuple(rng, k, groups, failing))
                .unwrap();
        }
    }
    if rng.one_in(4) {
        let fallback = move |k: &Value| {
            let t = TupleF::builder("λ").attr("a", k.clone()).attr("b", "fb");
            Ok(Value::Fn(FnValue::from(t.build())))
        };
        rel = rel
            .with_fallback(Domain::IntRange(keys, keys + 1), fallback)
            .unwrap();
    }
    rel
}

/// An entry's own attributes: none, `w`, `x, w`, or `w` and a computed
/// `z` that fails where the relations' `d` does.
fn entry_attrs(rng: &mut Rng, at: i64, failing: Failing) -> TupleF {
    let w = rng.below(100) as i64;
    let t = TupleF::builder("e");
    match rng.below(4) {
        0 => t,
        1 => t.attr("w", w),
        2 => t.attr("x", format!("x{}", rng.below(3))).attr("w", w),
        _ => t
            .attr("w", w)
            .computed("z", move |t| match failing.0 == Some(at) {
                true => Err(FdmError::Other(format!("z fails at {at}"))),
                false => t.get("w")?.add(&Value::Int(1)),
            }),
    }
    .build()
}

/// A random database: 2–4 relations and 1–3 relationships, each after the
/// first sharing a relation with an earlier one.
fn database(seed: u64) -> DatabaseF {
    let mut rng = Rng(seed);
    let dom = SharedDomain::new("key", Domain::Typed(ValueType::Int));
    let failing = Failing(rng.one_in(3).then(|| rng.below(20) as i64));
    let groups = 1 + rng.below(4);
    let mut db = DatabaseF::new("d").with_domain(dom.clone());
    let mut sizes = Vec::new();
    for r in 0..2 + rng.below(3) {
        let keys = 12 + rng.below(48) as i64;
        let name = format!("r{r}");
        db = db.with_relation(relation(&mut rng, &name, keys, groups, failing));
        sizes.push(keys);
    }
    let mut used: Vec<usize> = Vec::new();
    for e in 0..1 + rng.below(3) {
        let first = match used.is_empty() {
            true => rng.below(sizes.len() as u64) as usize,
            false => used[rng.below(used.len() as u64) as usize],
        };
        // a self-relationship now and then, otherwise any relation
        let second = match rng.one_in(4) {
            true => first,
            false => rng.below(sizes.len() as u64) as usize,
        };
        used.extend([first, second]);
        let mut names = [format!("r{first}"), format!("r{second}")];
        if rng.one_in(10) {
            names[1] = "ghost".to_string();
        }
        let participants = vec![
            Participant::new(&names[0], "src", dom.clone()),
            Participant::new(&names[1], "dst", dom.clone()),
        ];
        // keys up to three past each relation's range: dangling, or the
        // fallback's
        let ranges = [sizes[first] + 3, sizes[second] + 3];
        let mut args = BTreeSet::new();
        let want = 100 + rng.below(60) as usize;
        while args.len() < want {
            let pick = |rng: &mut Rng, n: i64| rng.below(n as u64) as i64;
            args.insert((pick(&mut rng, ranges[0]), pick(&mut rng, ranges[1])));
        }
        let mut b = RelationshipBuilder::new(format!("e{e}"), participants);
        for (at, (x, y)) in args.into_iter().enumerate() {
            let attrs = entry_attrs(&mut rng, at as i64, failing);
            b.push(&[Value::Int(x), Value::Int(y)], attrs).unwrap();
        }
        db = db.with_relationship(b.build().unwrap());
    }
    db
}

/// The join's relationship order, restated: among the relationships that
/// share a relation with what is bound (any, if none does), the one with
/// the fewest estimated output rows, the first of equals.
fn next_relationship(pending: &[(Name, Arc<RelationshipF>)], bound: &[Name], rows: usize) -> usize {
    let estimate = |rsf: &RelationshipF| {
        let parts = rsf.participants().iter().enumerate();
        let positions: Vec<usize> = parts
            .filter(|(_, p)| bound.contains(&p.function))
            .map(|(i, _)| i)
            .collect();
        rsf.stats().estimate_join_rows(rows, &positions)
    };
    let connected = |rsf: &RelationshipF| {
        let mut parts = rsf.participants().iter();
        parts.any(|p| bound.contains(&p.function))
    };
    let any_connected = pending.iter().any(|(_, rsf)| connected(rsf));
    let candidates = pending
        .iter()
        .enumerate()
        .filter(|(_, (_, rsf))| !any_connected || connected(rsf));
    let estimates = candidates.map(|(i, (_, rsf))| (i, estimate(rsf)));
    estimates
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .map_or(0, |(i, _)| i)
}

/// `join` as a nested loop.
fn reference_join(db: &DatabaseF) -> Result<Vec<Row>> {
    let mut pending: Vec<(Name, Arc<RelationshipF>)> = db
        .relationships()
        .map(|(n, r)| (n.clone(), r.clone()))
        .collect();
    // each working row with the key every relation it binds is bound to
    let mut rows: Vec<(Row, Vec<(Name, Value)>)> = vec![(Vec::new(), Vec::new())];
    let mut bound: Vec<Name> = Vec::new();
    while !pending.is_empty() {
        let (rname, rsf) = pending.remove(next_relationship(&pending, &bound, rows.len()));
        let mut rels = Vec::new();
        for p in rsf.participants() {
            rels.push(db.relation(&p.function).map_err(|_| {
                FdmError::Other(format!(
                    "join: relationship '{rname}' references '{}' which is not a relation in the database",
                    p.function
                ))
            })?);
        }
        let mut next = Vec::new();
        for (row, keys) in &rows {
            'entry: for (args, attrs) in rsf.iter() {
                let parts = rsf.participants().iter().zip(&args);
                // the relations this row has bound must agree first
                for (p, arg) in parts.clone() {
                    let key = keys.iter().find(|(rel, _)| *rel == p.function);
                    if key.is_some_and(|(_, key)| key != arg) {
                        continue 'entry;
                    }
                }
                // then each other relation binds once, by lookup
                let mut out = row.clone();
                let mut newly: Vec<(Name, Value)> = Vec::new();
                for (at, (p, arg)) in parts.enumerate() {
                    let rel = &p.function;
                    if keys.iter().chain(&newly).any(|(bound, _)| bound == rel) {
                        continue;
                    }
                    let Some(t) = rels[at].lookup(arg) else {
                        continue 'entry;
                    };
                    out.push((format!("{rel}.{}", p.key), arg.clone()));
                    for (n, v) in t.materialize()? {
                        out.push((format!("{rel}.{n}"), v));
                    }
                    newly.push((rel.clone(), arg.clone()));
                }
                for (n, v) in attrs.materialize()? {
                    out.push((format!("{rname}.{n}"), v));
                }
                next.push((out, keys.iter().cloned().chain(newly).collect()));
            }
        }
        for p in rsf.participants() {
            if !bound.contains(&p.function) {
                bound.push(p.function.clone());
            }
        }
        rows = next;
    }
    Ok(rows.into_iter().map(|(row, _)| row).collect())
}

/// A relation's tuples in key order, values materialized and the key
/// appended as `k`, each named `{rel}.{attr}`.
fn inlined(db: &DatabaseF, rel: &str) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    for (key, t) in db.relation(rel)?.tuples()? {
        let mut row: Row = t
            .materialize()?
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect();
        row.push(("k".to_string(), key));
        rows.push(
            row.into_iter()
                .map(|(n, v)| (format!("{rel}.{n}"), v))
                .collect(),
        );
    }
    Ok(rows)
}

fn value<'r>(row: &'r Row, name: &str) -> Option<&'r Value> {
    row.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

/// `join_on` as a nested loop.
fn reference_join_on(db: &DatabaseF, conditions: &[JoinOn]) -> Result<Vec<Row>> {
    let mut rows = inlined(db, &conditions[0].left_rel)?;
    let mut bound = vec![conditions[0].left_rel.clone()];
    for c in conditions {
        let (probe, build_rel, build) = match bound.contains(&c.left_rel) {
            true => (
                format!("{}.{}", c.left_rel, c.left_attr),
                &c.right_rel,
                &c.right_attr,
            ),
            false => (
                format!("{}.{}", c.right_rel, c.right_attr),
                &c.left_rel,
                &c.left_attr,
            ),
        };
        if bound.contains(build_rel) {
            let (l, r) = (
                format!("{}.{}", c.left_rel, c.left_attr),
                format!("{}.{}", c.right_rel, c.right_attr),
            );
            rows.retain(
                |row| matches!((value(row, &l), value(row, &r)), (Some(a), Some(b)) if a == b),
            );
            continue;
        }
        let build_rows = inlined(db, build_rel)?;
        let on = format!("{build_rel}.{build}");
        let mut next = Vec::new();
        for row in &rows {
            let Some(want) = value(row, &probe) else {
                continue;
            };
            for b in &build_rows {
                if value(b, &on) == Some(want) {
                    next.push(row.iter().chain(b).cloned().collect());
                }
            }
        }
        rows = next;
        bound.push(build_rel.clone());
    }
    Ok(rows)
}

/// A join's output as rows, checking that they are numbered `0..n`.
fn output_rows(rel: Result<RelationF>) -> std::result::Result<Vec<Row>, String> {
    let rel = rel.map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    for (i, (id, t)) in rel
        .tuples()
        .map_err(|e| e.to_string())?
        .into_iter()
        .enumerate()
    {
        assert_eq!(id, Value::Int(i as i64), "row ids count up from 0");
        let pairs = t.materialize().map_err(|e| e.to_string())?;
        rows.push(pairs.into_iter().map(|(n, v)| (n.to_string(), v)).collect());
    }
    Ok(rows)
}

/// A connected chain of two or three conditions over the first relations
/// of `db` (the left side, or the right, may be the bound one), sometimes
/// ending in a condition whose both sides are bound.
fn conditions(seed: u64, db: &DatabaseF) -> Vec<JoinOn> {
    let mut rng = Rng(seed ^ 0x0F0F);
    let relations = db.relations().count();
    let mut picks = vec![("r0", "a", "r1", "a")];
    if relations > 2 {
        let attr = ["a", "k"][rng.below(2) as usize];
        picks.push(("r1", "k", "r2", attr));
    }
    if rng.one_in(2) {
        picks.push(("r0", "k", "r1", "k"));
    }
    picks
        .into_iter()
        .map(|(l, la, r, ra)| match rng.one_in(2) {
            true => JoinOn::new(r, ra, l, la),
            false => JoinOn::new(l, la, r, ra),
        })
        .collect()
}

proptest! {
    #[test]
    fn schema_join_matches_the_nested_loop(seed in any::<u64>()) {
        let db = database(seed);
        let want = reference_join(&db).map_err(|e| e.to_string());
        prop_assert_eq!(output_rows(join(&db)), want);
    }

    #[test]
    fn join_on_matches_the_nested_loop(seed in any::<u64>()) {
        let db = database(seed);
        let on = conditions(seed, &db);
        let want = reference_join_on(&db, &on).map_err(|e| e.to_string());
        prop_assert_eq!(output_rows(join_on(&db, &on)), want);
    }
}

/// The generator reaches what the suite is for: outputs that cross chunk
/// boundaries, dangling keys, self-relationships, missing relations and
/// failing computed attributes.
#[test]
fn the_generated_databases_cover_the_cases() {
    let (mut rows, mut errors, mut selfs, mut ghosts, mut dangling) = (0, 0, 0, 0, 0);
    for seed in 0..64u64 {
        let db = database(seed);
        for (_, rsf) in db.relationships() {
            let parts = rsf.participants();
            selfs += usize::from(parts[0].function == parts[1].function);
            ghosts += usize::from(parts.iter().any(|p| p.function.as_ref() == "ghost"));
            let lookups = parts.iter().map(|p| db.relation(&p.function).ok());
            let rels: Vec<_> = lookups.collect();
            for (args, _) in rsf.iter() {
                let hit = |at: usize| {
                    rels[at]
                        .as_ref()
                        .is_some_and(|r| r.lookup(&args[at]).is_some())
                };
                dangling += usize::from(!hit(0) || !hit(1));
            }
        }
        match output_rows(join(&db)) {
            Ok(out) => rows = rows.max(out.len()),
            Err(_) => errors += 1,
        }
    }
    assert!(rows > 64, "some output spans chunks: {rows}");
    assert!(errors > 0 && errors < 32, "{errors} of 64 fail");
    assert!(
        selfs > 0 && ghosts > 0 && dangling > 0,
        "{selfs} {ghosts} {dangling}"
    );
}
