//! A tuple's domain is stored once — an `Arc<Shape>` shared by like
//! tuples — and that must be **impossible to observe** except as speed and
//! memory. Counts and identities only, no clocks:
//!
//! * (a) a tuple reached through every construction path answers exactly
//!   like a plain attribute list (first definition of a name wins): names
//!   in declaration order, `get`, `materialize`, the cached and uncached
//!   data key, `eq_data` (and `same_data`, its slot-by-slot fast path
//!   over a shared shape), and the encoded bytes;
//! * (b) heterogeneous relations — tuples of one relation with different
//!   attribute sets and declaration orders, a computed attribute, a
//!   composite key partly carried — go through both joins, `project`,
//!   `filter`-over-scan and `group_agg` like the eager per-tuple pair-list
//!   path kept here as oracle;
//! * (c) the sharing sites share: a replaced attribute keeps its shape,
//!   the bulk builders unify equal shapes, a decode and an operator call
//!   yield one output shape per distinct combination of input shapes;
//! * (d) a built row costs the same number of allocations at 4 and at 16
//!   attributes, and fingerprinting an all-stored tuple allocates nothing.
//!
//! CI runs this suite at `PROPTEST_CASES=512`. (c) and (d) were
//! mutation-checked by disabling the builders' unification and the
//! operators' `ShapeMemo`.

use fdm_core::{
    DatabaseF, Domain, FdmError, Name, Participant, RelationBuilder, RelationF,
    RelationshipBuilder, Shape, SharedDomain, TupleF, Value, ValueType,
};
use fdm_durability::{decode_ops, encode_ops};
use fdm_expr::{BinOp, Expr};
use fdm_fql::filter::with_inlined_keys;
use fdm_fql::{join, AggSpec, Query};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

// ------------------------------------------------ counting allocator (d)

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

// ------------------------------------- the reference: an attribute list

/// A tuple as the paper writes it: `(name, value)` pairs in declaration
/// order. A repeated name is answered by its first pair.
type Attrs = Vec<(String, Value)>;

const NAMES: [&str; 8] = ["a", "b", "c", "d", "e", "k", "k2", "zz"];

fn ref_get<'a>(attrs: &'a Attrs, name: &str) -> Option<&'a Value> {
    attrs.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

/// Every slot with the value `get` answers for its name.
fn ref_materialized(attrs: &Attrs) -> Attrs {
    attrs
        .iter()
        .map(|(n, _)| (n.clone(), ref_get(attrs, n).unwrap().clone()))
        .collect()
}

/// Materialized, in name order (stable: repeats keep declaration order).
fn ref_canonical(attrs: &Attrs) -> Attrs {
    let mut sorted = ref_materialized(attrs);
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    sorted
}

fn ref_data_key(attrs: &Attrs) -> Value {
    Value::list(
        ref_canonical(attrs)
            .into_iter()
            .flat_map(|(n, v)| [Value::str(n), v]),
    )
}

fn ref_with_attr(attrs: &Attrs, name: &str, v: Value) -> Attrs {
    let mut out = attrs.clone();
    match out.iter_mut().find(|(n, _)| n == name) {
        Some((_, slot)) => *slot = v,
        None => out.push((name.to_string(), v)),
    }
    // the slots a repeated name shadows answer like the first again
    ref_materialized(&out)
}

/// The key attributes `attrs` lacks, appended (scan / join-side inlining).
fn ref_inlined(attrs: &Attrs, key_names: &[&str], key: &Value) -> Attrs {
    let parts: Vec<Value> = match key {
        Value::List(parts) if key_names.len() > 1 => parts.to_vec(),
        whole => vec![whole.clone()],
    };
    let mut out = attrs.clone();
    for (name, part) in key_names.iter().zip(parts) {
        if ref_get(&out, name).is_none() {
            out.push((name.to_string(), part));
        }
    }
    out
}

/// The canonical codec, written out for the two value types generated
/// here: the bytes of `encode_ops(&[Upsert { rel: "r", key: 1, tuple }])`.
fn ref_encoded(tuple_name: &str, attrs: &Attrs) -> Vec<u8> {
    fn str(buf: &mut Vec<u8>, s: &str) {
        buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
        buf.extend_from_slice(s.as_bytes());
    }
    fn value(buf: &mut Vec<u8>, v: &Value) {
        match v {
            Value::Int(i) => {
                buf.push(2);
                buf.extend_from_slice(&i.to_le_bytes());
            }
            Value::Str(s) => {
                buf.push(4);
                str(buf, s);
            }
            other => panic!("the reference encoder does not cover {other}"),
        }
    }
    let mut buf = Vec::new();
    buf.extend_from_slice(&1u32.to_le_bytes()); // one op
    buf.push(0); // upsert
    str(&mut buf, "r");
    value(&mut buf, &Value::Int(1));
    str(&mut buf, tuple_name);
    buf.extend_from_slice(&(attrs.len() as u32).to_le_bytes());
    for (n, v) in ref_canonical(attrs) {
        str(&mut buf, &n);
        value(&mut buf, &v);
    }
    buf
}

fn upsert_of(t: &TupleF) -> Vec<fdm_core::Op> {
    vec![fdm_core::Op::Upsert {
        rel: Name::from("r"),
        key: Value::Int(1),
        tuple: Arc::new(t.clone()),
    }]
}

/// The tuple, attribute by attribute.
fn built(name: &str, attrs: &Attrs) -> TupleF {
    let mut b = TupleF::builder(name);
    for (n, v) in attrs {
        b = b.attr(n, v.clone());
    }
    b.build()
}

fn listed(t: &TupleF) -> Attrs {
    t.materialize()
        .unwrap()
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect()
}

/// `t` answers exactly as the attribute list does.
fn assert_is(t: &TupleF, name: &str, attrs: &Attrs, what: &str) {
    assert_eq!(t.name(), name, "{what}: name");
    assert_eq!(t.attr_count(), attrs.len(), "{what}: attr_count");
    let names: Vec<&str> = t.attr_names().map(|n| n.as_ref()).collect();
    let want: Vec<&str> = attrs.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, want, "{what}: declaration order");
    assert_eq!(t.shape().names().len(), attrs.len(), "{what}: shape");
    for name in NAMES {
        match ref_get(attrs, name) {
            Some(v) => assert_eq!(t.get(name).unwrap(), *v, "{what}: get({name})"),
            None => {
                let err = t.get(name).unwrap_err();
                assert!(matches!(err, FdmError::NoSuchAttribute { .. }), "{what}");
            }
        }
        assert_eq!(t.has_attr(name), ref_get(attrs, name).is_some(), "{what}");
        assert!(!t.is_computed(name), "{what}: stored attributes only");
    }
    assert_eq!(listed(t), ref_materialized(attrs), "{what}: materialize");
    let mut values = Vec::new();
    t.values_into(&mut values).unwrap();
    let want: Vec<Value> = ref_materialized(attrs).into_iter().map(|p| p.1).collect();
    assert_eq!(values, want, "{what}: values_into");
    let key = ref_data_key(attrs);
    assert_eq!(t.compute_data_key().unwrap(), key, "{what}: uncached key");
    assert_eq!(t.data_key().unwrap(), key, "{what}: cached key");
    assert_eq!(t.data_key().unwrap(), key, "{what}: cached key, again");
    assert_eq!(*t.fingerprint().unwrap().value(), key, "{what}: DataKey");
    // equal to the attribute-by-attribute tuple, declared backwards too
    let reference = built("reference", attrs);
    assert!(t.eq_data(&reference) && reference.eq_data(t), "{what}");
    assert_eq!(
        t.fingerprint().unwrap().hash(),
        reference.fingerprint().unwrap().hash(),
        "{what}: hash"
    );
    if ref_canonical(attrs).windows(2).all(|w| w[0].0 != w[1].0) {
        let backwards: Attrs = attrs.iter().rev().cloned().collect();
        assert!(t.eq_data(&built("backwards", &backwards)), "{what}");
    }
    let other = ref_with_attr(attrs, "zz", Value::str("something else"));
    assert!(!t.eq_data(&built("other", &other)), "{what}: unequal data");
    // `same_data` is `eq_data`: across shapes, and slot by slot over the
    // shape a replaced attribute keeps
    assert!(
        t.same_data(t) && t.same_data(&reference),
        "{what}: same_data"
    );
    assert!(!t.same_data(&built("other", &other)), "{what}: same_data");
    for (name, v) in attrs {
        for twin in [t.with_attr(name, v.clone()), t.with_attr(name, "moved")] {
            assert!(Arc::ptr_eq(t.shape(), twin.shape()), "{what}: one shape");
            assert_eq!(t.same_data(&twin), t.eq_data(&twin), "{what}: same_data");
        }
    }
    assert_eq!(
        encode_ops(&upsert_of(t)).unwrap(),
        ref_encoded(name, attrs),
        "{what}: encoded bytes"
    );
}

// -------------------------------------------------------- generators

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-3i64..40).prop_map(Value::Int),
        (0u8..4).prop_map(|i| Value::str(["", "x", "NY", "Zoë"][i as usize])),
    ]
}

/// An attribute list: usually distinct names, sometimes a repeated one.
fn attrs(max: usize) -> impl Strategy<Value = Attrs> {
    prop::collection::vec((0usize..NAMES.len(), value()), 0..max).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(n, v)| (NAMES[n].to_string(), v))
            .collect()
    })
}

#[derive(Debug, Clone)]
enum Op {
    With(usize, Value),
    Without(usize),
    Project(Vec<usize>),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..NAMES.len(), value()).prop_map(|(n, v)| Op::With(n, v)),
        (0usize..NAMES.len()).prop_map(Op::Without),
        prop::collection::vec(0usize..NAMES.len(), 0..4).prop_map(Op::Project),
    ]
}

// ------------------------------------------------ (a) construction paths

proptest! {
    /// However a tuple came to be, it is the function its attribute list
    /// describes.
    #[test]
    fn every_construction_path_answers_like_the_attribute_list(
        list in attrs(7),
        other in attrs(4),
        ops in prop::collection::vec(op(), 0..6),
    ) {
        // the builder, plain and hinted (a hint that fits, one that does not)
        assert_is(&built("t", &list), "t", &list, "builder");
        for (hint, what) in [(&list, "fitting hint"), (&other, "other hint")] {
            let mut rel = RelationBuilder::new("r", &["id"]);
            rel.push(Value::Int(0), built("first", hint));
            let mut b = rel.tuple("t");
            for (n, v) in &list {
                b = b.attr(n, v.clone());
            }
            assert_is(&b.build(), "t", &list, what);
        }
        // pairs, and values over a shape
        let pairs = list.iter().map(|(n, v)| (Name::from(n.as_str()), v.clone()));
        assert_is(&TupleF::from_parts("t", pairs.collect()), "t", &list, "from_parts");
        let shape = Shape::new(list.iter().map(|(n, _)| Name::from(n.as_str())));
        let values = list.iter().map(|(_, v)| v.clone()).collect();
        assert_is(&TupleF::from_shape("t", shape, values), "t", &list, "from_shape");
        // through the codec: names come back in canonical order
        let bytes = encode_ops(&upsert_of(&built("t", &list))).unwrap();
        let fdm_core::Op::Upsert { tuple, .. } = decode_ops(&bytes).unwrap().remove(0) else {
            panic!("an upsert")
        };
        assert_is(&tuple, "t", &ref_canonical(&list), "decoded");
        // with_attr (an existing name, a new one), without_attr, project —
        // from a tuple whose fingerprint is already cached
        let (mut t, mut model) = (built("t", &list), ref_materialized(&list));
        for op in ops {
            let _ = t.fingerprint();
            match op {
                Op::With(n, v) => {
                    t = t.with_attr(NAMES[n], v.clone());
                    model = ref_with_attr(&model, NAMES[n], v);
                }
                Op::Without(n) => {
                    t = t.without_attr(NAMES[n]);
                    model.retain(|(name, _)| name != NAMES[n]);
                }
                Op::Project(keep) => {
                    let keep: Vec<&str> = keep.into_iter().map(|n| NAMES[n]).collect();
                    if keep.iter().any(|n| ref_get(&model, n).is_none()) {
                        prop_assert!(t.project(&keep).is_err());
                        continue;
                    }
                    t = t.project(&keep).unwrap();
                    model = keep
                        .iter()
                        .map(|n| (n.to_string(), ref_get(&model, n).unwrap().clone()))
                        .collect();
                }
            }
            assert_is(&t, "t", &model, "after an op");
        }
        // key inlining, single and composite, carried or not
        for key_names in [&["k"][..], &["k", "k2"][..]] {
            let key = match key_names.len() {
                1 => Value::Int(7),
                _ => Value::list([Value::Int(7), Value::str("seven")]),
            };
            let mut rel = RelationBuilder::new("r", key_names);
            rel.push(key.clone(), built("t", &list));
            let inlined = with_inlined_keys(&rel.build().unwrap()).unwrap();
            let t = inlined.lookup(&key).unwrap();
            assert_is(&t, "t", &ref_inlined(&list, key_names, &key), "inlined");
        }
    }
}

// ------------------------- (b) heterogeneous relations vs the eager path

/// A relation's rows as attribute lists.
type Rows = Vec<(Value, Attrs)>;

fn int(v: &Value) -> i64 {
    v.as_int("a generated int").unwrap()
}

/// `l`: keyed by `id`; every tuple has the join attribute `j`, the rest
/// varies per tuple in set and in order; every third tuple also answers
/// `twice` = 2·j, computed. `r`: keyed by `(k, k2)`, the tuples carrying
/// none, one or both key parts themselves.
fn hetero_db(left: &[Attrs], right: &[Attrs]) -> (DatabaseF, Rows, Rows) {
    let mut l = RelationBuilder::new("l", &["id"]);
    let mut l_rows = Rows::new();
    for (i, extra) in left.iter().enumerate() {
        let mut attrs: Attrs = extra
            .iter()
            .filter(|(n, _)| !["k", "k2", "zz"].contains(&n.as_str()))
            .cloned()
            .collect();
        let j = Value::Int(i as i64 % 3);
        attrs.insert(attrs.len() / 2, ("j".into(), j.clone()));
        let attrs = ref_materialized(&attrs);
        let mut t = TupleF::builder(format!("l{i}"));
        for (n, v) in &attrs {
            t = t.attr(n, v.clone());
        }
        let mut attrs = attrs;
        if i % 3 == 0 {
            t = t.computed("twice", |t| t.get("j")?.mul(&Value::Int(2)));
            attrs.push(("twice".into(), Value::Int(int(&j) * 2)));
        }
        l.push(Value::Int(i as i64), t.build());
        l_rows.push((Value::Int(i as i64), attrs));
    }
    let mut r = RelationBuilder::new("r", &["k", "k2"]);
    let mut r_rows = Rows::new();
    for (i, extra) in right.iter().enumerate() {
        let key = Value::list([Value::Int(i as i64 % 3), Value::Int(i as i64)]);
        let mut attrs: Attrs = extra
            .iter()
            .filter(|(n, _)| !["k", "zz"].contains(&n.as_str()))
            .cloned()
            .collect();
        if i % 2 == 0 {
            // carries the first key part itself — and says something else
            attrs.push(("k".into(), Value::Int(i as i64 % 2)));
        }
        let attrs = ref_materialized(&attrs);
        r.push(key.clone(), built(&format!("r{i}"), &attrs));
        r_rows.push((key, attrs));
    }
    let db = DatabaseF::new("hetero")
        .with_relation(l.build().unwrap())
        .with_relation(r.build().unwrap());
    (db, l_rows, r_rows)
}

/// What an operator produced, as a sorted bag of attribute lists (row ids
/// are canonical or positional; the lists are what this suite is about).
fn bag(rel: &RelationF) -> Vec<Attrs> {
    let mut rows: Vec<Attrs> = rel
        .tuples()
        .unwrap()
        .iter()
        .map(|(_, t)| listed(t))
        .collect();
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

fn sorted(mut rows: Vec<Attrs>) -> Vec<Attrs> {
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

/// Every output tuple still answers for itself: cached key ≡ uncached.
fn assert_fresh(rel: &RelationF, what: &str) {
    for (key, t) in rel.tuples().unwrap() {
        assert_eq!(
            t.data_key().unwrap(),
            t.compute_data_key().unwrap(),
            "{what} at {key}"
        );
        assert_eq!(listed(&t), ref_materialized(&listed(&t)), "{what} at {key}");
    }
}

proptest! {
    #[test]
    fn heterogeneous_relations_go_through_the_operators_like_pair_lists(
        left in prop::collection::vec(attrs(5), 1..9),
        right in prop::collection::vec(attrs(4), 1..7),
    ) {
        let (db, l_rows, r_rows) = hetero_db(&left, &right);
        let l_inlined: Vec<Attrs> = l_rows
            .iter()
            .map(|(key, attrs)| ref_inlined(attrs, &["id"], key))
            .collect();

        // Query::Join: the left list, then the inlined right one under `r.`
        let joined = Query::scan("l").join("r", "j", "k").eval(&db).unwrap();
        let mut want = Vec::new();
        for lt in &l_inlined {
            for (key, rt) in &r_rows {
                let rt = ref_inlined(rt, &["k", "k2"], key);
                if ref_get(&rt, "k") == ref_get(lt, "j") {
                    let right = rt.iter().map(|(n, v)| (format!("r.{n}"), v.clone()));
                    want.push(lt.iter().cloned().chain(right).collect());
                }
            }
        }
        prop_assert_eq!(bag(&joined), sorted(want.clone()), "Query::Join");
        assert_fresh(&joined, "Query::Join");
        for (key, t) in joined.tuples().unwrap() {
            let hash = t.fingerprint().unwrap().hash() as i64;
            prop_assert_eq!(&key.as_list("id").unwrap()[0], &Value::Int(hash));
        }

        // a second join on top (its input keyed by emission order), with a
        // projection in between
        let keep = ["j", "id", "r.k2"];
        let twice = Query::scan("l")
            .join("r", "j", "k")
            .project(&keep)
            .join("l", "j", "j")
            .eval(&db)
            .unwrap();
        let mut want2 = Vec::new();
        for row in &want {
            for lt in &l_inlined {
                if ref_get(lt, "j") == ref_get(row, "j") {
                    let kept = keep.iter().map(|n| (n.to_string(), ref_get(row, n).unwrap().clone()));
                    let right = lt.iter().map(|(n, v)| (format!("l.{n}"), v.clone()));
                    want2.push(kept.chain(right).collect());
                }
            }
        }
        prop_assert_eq!(bag(&twice), sorted(want2), "join over project over join");

        // project and filter over a scan; group_agg over the join
        let projected = Query::scan("l").project(&["id", "j"]).eval(&db).unwrap();
        let want: Vec<Attrs> = l_inlined
            .iter()
            .map(|lt| vec![("id".into(), ref_get(lt, "id").unwrap().clone()),
                           ("j".into(), ref_get(lt, "j").unwrap().clone())])
            .collect();
        prop_assert_eq!(bag(&projected), sorted(want), "project");
        let pred = Expr::bin(BinOp::Ge, Expr::Attr("j".into()), Expr::lit(1));
        let filtered = Query::scan("l").filter_expr(pred).eval(&db).unwrap();
        let want: Vec<Attrs> = l_inlined
            .iter()
            .filter(|lt| int(ref_get(lt, "j").unwrap()) >= 1)
            .cloned()
            .collect();
        prop_assert_eq!(bag(&filtered), sorted(want), "filter over scan");
        assert_fresh(&filtered, "filter over scan");
        let counted = Query::scan("l")
            .join("r", "j", "k")
            .group_agg(&["j"], &[("n", AggSpec::Count)])
            .eval(&db)
            .unwrap();
        for (key, t) in counted.tuples().unwrap() {
            let n = joined
                .tuples()
                .unwrap()
                .iter()
                .filter(|(_, row)| row.get("j").unwrap() == key)
                .count() as i64;
            let want = vec![("j".to_string(), key.clone()), ("n".to_string(), Value::Int(n))];
            assert_is(&t, &format!("agg[{key}]"), &want, "group_agg");
        }

        // the schema join: `l` and `m` (`r`'s tuples under a single key)
        // along a relationship whose entries differ in attributes as well
        let dom = SharedDomain::new("ids", Domain::Typed(ValueType::Int));
        let mut m = RelationBuilder::new("m", &["mid"]);
        for (i, (_, attrs)) in r_rows.iter().enumerate() {
            m.push(Value::Int(i as i64), built(&format!("m{i}"), attrs));
        }
        let mut link = RelationshipBuilder::new("link", vec![
            Participant::new("l", "id", dom.clone()),
            Participant::new("m", "mid", dom.clone()),
        ]);
        let mut want = Vec::new();
        for (li, (lkey, lt)) in l_rows.iter().enumerate() {
            for (mi, (_, mt)) in r_rows.iter().enumerate() {
                if (li + mi) % 2 == 1 {
                    continue;
                }
                let own: Attrs = match (li + mi) % 3 {
                    0 => vec![],
                    1 => vec![("w".into(), Value::Int(li as i64))],
                    _ => vec![("note".into(), Value::str("x")), ("w".into(), Value::Int(mi as i64))],
                };
                let args = [lkey.clone(), Value::Int(mi as i64)];
                link.push(&args, built("e", &own)).unwrap();
                let mut row: Attrs = vec![("l.id".into(), lkey.clone())];
                row.extend(lt.iter().map(|(n, v)| (format!("l.{n}"), v.clone())));
                row.push(("m.mid".into(), args[1].clone()));
                row.extend(mt.iter().map(|(n, v)| (format!("m.{n}"), v.clone())));
                row.extend(own.iter().map(|(n, v)| (format!("link.{n}"), v.clone())));
                want.push(row);
            }
        }
        // one dangling entry: an inner join drops it
        link.push_link(&[Value::Int(0), Value::Int(999)]).unwrap();
        let schema = db
            .with_relation(m.build().unwrap())
            .with_domain(dom)
            .with_relationship(link.build().unwrap());
        let out = join(&schema).unwrap();
        prop_assert_eq!(bag(&out), sorted(want), "schema join");
        assert_fresh(&out, "schema join");
    }
}

// ------------------------------------------------------ (c) sharing pins

fn distinct_shapes<'a>(tuples: impl IntoIterator<Item = &'a Arc<TupleF>>) -> usize {
    let seen: BTreeSet<usize> = tuples
        .into_iter()
        .map(|t| Arc::as_ptr(t.shape()) as usize)
        .collect();
    seen.len()
}

fn shapes_of(rel: &RelationF) -> usize {
    let rows = rel.tuples().unwrap();
    distinct_shapes(rows.iter().map(|(_, t)| t))
}

/// `customers` in two blocks of like tuples (the second lacks `state`),
/// `products` and the `order` entries alike throughout.
fn two_block_shop(n: i64) -> DatabaseF {
    let cid = SharedDomain::new("cid", Domain::Typed(ValueType::Int));
    let pid = SharedDomain::new("pid", Domain::Typed(ValueType::Int));
    let mut customers = RelationBuilder::new("customers", &["cid"]);
    let mut products = RelationBuilder::new("products", &["pid"]);
    let mut order = RelationshipBuilder::new(
        "order",
        vec![
            Participant::new("customers", "cid", cid.clone()),
            Participant::new("products", "pid", pid.clone()),
        ],
    );
    for i in 0..n {
        let mut c = TupleF::builder(format!("c{i}")).attr("name", format!("n{i}"));
        if i < n / 2 {
            c = c.attr("state", "NY");
        }
        customers.push(Value::Int(i), c.attr("age", 20 + i % 50).build());
        products.push(
            Value::Int(i),
            TupleF::builder("p")
                .attr("price", i)
                .attr("name", "p")
                .build(),
        );
        for p in [i, (i + 1) % n] {
            let o = TupleF::builder("o")
                .attr("date", "d")
                .attr("qty", p)
                .build();
            order.push(&[Value::Int(i), Value::Int(p)], o).unwrap();
        }
    }
    DatabaseF::new("shop")
        .with_domain(cid)
        .with_domain(pid)
        .with_relation(customers.build().unwrap())
        .with_relation(products.build().unwrap())
        .with_relationship(order.build().unwrap())
}

#[test]
fn a_replaced_attribute_keeps_the_shape() {
    let t = TupleF::builder("t")
        .attr("a", 1)
        .attr("b", 2)
        .computed("c", |t| t.get("a"))
        .build();
    let replaced = t.with_attr("b", 9);
    assert!(Arc::ptr_eq(t.shape(), replaced.shape()), "same domain");
    assert!(replaced.is_computed("c"));
    // a new name, and a computed attribute turned stored, are new domains
    assert!(!Arc::ptr_eq(t.shape(), t.with_attr("d", 1).shape()));
    let frozen = t.with_attr("c", 5);
    assert!(!Arc::ptr_eq(t.shape(), frozen.shape()));
    assert!(!frozen.has_computed_attrs() && t.has_computed_attrs());
    assert_eq!(frozen.get("c").unwrap(), Value::Int(5));
}

#[test]
fn bulk_builders_converge_on_one_shape_per_run_of_like_tuples() {
    let t = |i: i64| TupleF::builder("t").attr("x", i).attr("y", "s").build();
    let mut b = RelationBuilder::new("r", &["id"]);
    b.push(Value::Int(0), t(0));
    b.push(Value::Int(1), t(1));
    b.push_arc(Value::Int(2), Arc::new(t(2)));
    // a tuple somebody else holds too is left as it is
    let held = Arc::new(t(3));
    b.push_arc(Value::Int(3), held.clone());
    // the hinted builder never made a second shape in the first place
    let hinted = b.tuple("t").attr("x", 4).attr("y", "s").build();
    assert!(Arc::ptr_eq(hinted.shape(), held.shape()));
    b.push(Value::Int(4), hinted);
    // other names, another order: shapes of their own
    b.push(
        Value::Int(5),
        TupleF::builder("t").attr("y", "s").attr("x", 5).build(),
    );
    b.push(Value::Int(6), TupleF::builder("t").attr("x", 6).build());
    let rel = b.build().unwrap();
    let shape = |i: i64| rel.lookup(&Value::Int(i)).unwrap().shape().clone();
    assert!(Arc::ptr_eq(&shape(0), &shape(1)) && Arc::ptr_eq(&shape(0), &shape(2)));
    assert!(!Arc::ptr_eq(&shape(0), &shape(3)), "shared tuple untouched");
    assert_eq!(shapes_of(&rel), 4);

    let shop = two_block_shop(40);
    assert_eq!(shapes_of(&shop.relation("customers").unwrap()), 2);
    assert_eq!(shapes_of(&shop.relation("products").unwrap()), 1);
    let order = shop.relationship("order").unwrap();
    assert_eq!(distinct_shapes(order.iter_entries().map(|(_, t)| t)), 1);
    // the generated retail data is loaded through hinted builders
    let retail =
        fdm_workload::to_fdm(&fdm_workload::generate(&fdm_workload::RetailConfig::small()));
    assert_eq!(shapes_of(&retail.relation("customers").unwrap()), 1);
    let order = retail.relationship("order").unwrap();
    assert_eq!(distinct_shapes(order.iter_entries().map(|(_, t)| t)), 1);
}

#[test]
fn operators_emit_one_shape_per_combination_of_input_shapes() {
    let shop = two_block_shop(1_500);
    let joined = join(&shop).unwrap();
    assert_eq!(joined.len(), 3_000);
    assert_eq!(shapes_of(&joined), 2, "two customer shapes × one × one");
    // homogeneous inputs: every output row shares one shape
    let uniform =
        fdm_workload::to_fdm(&fdm_workload::generate(&fdm_workload::RetailConfig::small()));
    assert_eq!(shapes_of(&join(&uniform).unwrap()), 1);

    // (`to_relation` inserts tuple by tuple; a bulk build unifies them)
    let mut orders = RelationBuilder::new("orders", &["cid", "pid"]);
    for (key, t) in shop
        .relationship("order")
        .unwrap()
        .to_relation()
        .tuples()
        .unwrap()
    {
        orders.push(key, (*t).clone());
    }
    let db = shop.with_relation(orders.build().unwrap());
    let q = Query::scan("orders").join("customers", "cid", "cid");
    assert_eq!(shapes_of(&q.eval(&db).unwrap()), 2);
    let q = q.join("products", "pid", "pid");
    assert_eq!(shapes_of(&q.eval(&db).unwrap()), 2);
    let on = fdm_fql::join_on(
        &db,
        &[fdm_fql::JoinOn::new("orders", "cid", "customers", "cid")],
    )
    .unwrap();
    assert_eq!(shapes_of(&on), 2);

    // below the cutoff one operator call is one memo
    let small = two_block_shop(40);
    let scanned = Query::scan("customers").eval(&small).unwrap();
    assert_eq!(shapes_of(&scanned), 2, "key inlining");
    // two input shapes project onto equal shapes: the builder unifies them
    let projected = Query::scan("customers")
        .project(&["age", "cid"])
        .eval(&small)
        .unwrap();
    assert_eq!(shapes_of(&projected), 1, "project");
    let pred = Expr::bin(BinOp::Ge, Expr::Attr("age".into()), Expr::lit(0));
    let filtered = Query::scan("customers")
        .filter_expr(pred)
        .eval(&small)
        .unwrap();
    assert_eq!(
        (filtered.len(), shapes_of(&filtered)),
        (40, 2),
        "filter over scan"
    );
}

#[test]
fn a_decode_yields_one_shape_per_attribute_list() {
    let shop = two_block_shop(40);
    let bytes = fdm_durability::encode_database(&shop).unwrap();
    let back = fdm_durability::decode_database(&bytes).unwrap();
    assert_eq!(shapes_of(&back.relation("customers").unwrap()), 2);
    assert_eq!(shapes_of(&back.relation("products").unwrap()), 1);
    let order = back.relationship("order").unwrap();
    assert_eq!(distinct_shapes(order.iter_entries().map(|(_, t)| t)), 1);
    assert_eq!(fdm_durability::encode_database(&back).unwrap(), bytes);
}

#[test]
fn a_replayed_wal_tail_yields_one_shape_per_run_of_like_records() {
    use fdm_txn::{DurabilityConfig, Store, StoreConfig};
    let dir = std::env::temp_dir().join(format!("fdm-shapes-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig {
        durability: Some(DurabilityConfig::new(&dir).with_checkpoint_every(None)),
        ..StoreConfig::default()
    };
    let db = DatabaseF::new("d").with_relation(RelationF::new("r", &["id"]));
    let store = Store::create(db, config).unwrap();
    for i in 0..20i64 {
        // one record per commit, each tuple built on its own
        let t = TupleF::builder("t").attr("x", i).attr("y", "s").build();
        store
            .run(|txn| txn.upsert("r", Value::Int(i), t.clone()))
            .unwrap();
    }
    drop(store);
    let reopened = Store::open(&dir).unwrap();
    let rel = reopened.snapshot().relation("r").unwrap();
    assert_eq!((rel.len(), shapes_of(&rel)), (20, 1));
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

// --------------------------------------------------- (d) allocation pins

/// `n` rows of `width` int attributes each, plus the relation to join to.
fn wide_db(n: i64, width: usize) -> DatabaseF {
    let mut wide = RelationBuilder::new("wide", &["id"]);
    let mut narrow = RelationBuilder::new("narrow", &["nid"]);
    for i in 0..n {
        let mut t = wide.tuple("w");
        for a in 0..width {
            t = t.attr(format!("a{a}"), i + a as i64);
        }
        let t = t.build();
        wide.push(Value::Int(i), t);
        let t = narrow.tuple("n").attr("v", i).build();
        narrow.push(Value::Int(i), t);
    }
    DatabaseF::new("wide")
        .with_relation(wide.build().unwrap())
        .with_relation(narrow.build().unwrap())
}

#[test]
fn a_built_row_costs_the_same_at_4_and_at_16_attributes() {
    const ROWS: i64 = 512;
    let per_row = |width: usize| -> [usize; 3] {
        // the hinted builder: after the first tuple, no name is allocated
        let names: Vec<String> = (0..width).map(|a| format!("a{a}")).collect();
        let (load, _) = allocations(|| {
            let mut rel = RelationBuilder::new("r", &["id"]).with_capacity(ROWS as usize + 1);
            let first = rel.tuple("t");
            let first = names.iter().fold(first, |t, n| t.attr(n, 0)).build();
            rel.push(Value::Int(-1), first);
            let (_, counted) = allocations(|| {
                for i in 0..ROWS {
                    let t = names
                        .iter()
                        .fold(rel.tuple("t"), |t, n| t.attr(n, i))
                        .build();
                    rel.push(Value::Int(i), t);
                }
            });
            counted
        });
        let db = wide_db(ROWS, width);
        let q = Query::scan("wide").join("narrow", "id", "nid");
        let (joined, join) = allocations(|| q.eval(&db).unwrap());
        assert_eq!(joined.len(), ROWS as usize);
        let q = Query::scan("wide").project(&["a1", "a0"]);
        let (_, project) = allocations(|| q.eval(&db).unwrap());
        [load, join, project]
    };
    let (four, sixteen) = (per_row(4), per_row(16));
    assert_eq!(four, sixteen, "[load, join, project] allocations");
    // a loaded tuple is its definitions and its `Arc` (and its name, were
    // it not its predecessor's); a scanned
    // and joined (projected) row is a fixed handful more — deriving a
    // shape per row instead of per call would add three apiece
    let rows = ROWS as usize;
    assert_eq!(four[0], 2 * rows, "hinted load");
    // a row over a shared shape takes its value vector as it is
    let shape = Shape::new(["a", "b", "c"].map(Name::from));
    let (name, values) = (Name::from("j"), vec![Value::Int(1); 3]);
    let (t, count) = allocations(|| TupleF::from_shape(name, shape, values));
    assert_eq!(
        (count, t.get("c").unwrap()),
        (0, Value::Int(1)),
        "from_shape"
    );
    assert!(four[1] <= 11 * rows, "join: {} for {rows} rows", four[1]);
    assert!(four[2] <= 7 * rows, "project: {} for {rows} rows", four[2]);
}

#[test]
fn fingerprinting_an_all_stored_tuple_allocates_nothing() {
    let t = TupleF::builder("t")
        .attr("name", "Alice")
        .attr("age", 43)
        .attr("tags", Value::list([Value::Int(1), Value::str("x")]))
        .build();
    let twin = t.with_attr("age", 44);
    let ((), count) = allocations(|| {
        let a = t.fingerprint().unwrap().hash();
        let b = twin.fingerprint().unwrap().hash();
        assert_ne!(a, b);
        assert!(!t.eq_data(&twin));
    });
    assert_eq!(
        count, 0,
        "hashing walks the shape's canonical order in place"
    );
    // the canonical key is built when — and only when — somebody asks
    let (_, count) = allocations(|| t.data_key().unwrap());
    assert!(count > 0);
    assert_eq!(t.data_key().unwrap(), t.compute_data_key().unwrap());
}
