//! Property-based differential tests: `PMap` against `std::collections::BTreeMap`
//! as the reference model, plus structural-sharing/snapshot properties.
//!
//! The bulk set algebra (`merge_*`, `split`, `join`, `diff`) is pinned
//! against per-element insert/lookup/remove oracles, on random inputs and
//! on the adversarial shapes a merge can meet: disjoint ranges, perfectly
//! interleaved keys, one entry against 64k, an empty side, and two handles
//! on the same tree. Deep trees of up to ~5,000 entries (at least three
//! levels) are pinned against `BTreeMap`: runs of removes that underflow
//! and merge nodes, scans and order statistics across leaf boundaries, and
//! merges with an edited copy that allocate per edit.

use fdm_storage::{PMap, PSet};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A random operation applied to both the PMap and the model.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Remove(i64),
    UpdateWith(i64, i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<i64>().prop_map(|k| k % 64), any::<i64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (any::<i64>().prop_map(|k| k % 64)).prop_map(Op::Remove),
        (any::<i64>().prop_map(|k| k % 64), any::<i64>()).prop_map(|(k, d)| Op::UpdateWith(k, d)),
    ]
}

type Map = PMap<i64, i64>;

fn entries(m: &Map) -> Vec<(i64, i64)> {
    m.iter().map(|(k, v)| (*k, *v)).collect()
}

/// Left-biased union by per-entry insert: the reference for
/// `merge_union[_with]`.
fn union_by_insert(a: &Map, b: &Map, mut combine: impl FnMut(&i64, &i64, &i64) -> i64) -> Map {
    let mut out = a.clone();
    for (k, vb) in b.iter() {
        let v = match a.get(k) {
            Some(va) => combine(k, va, vb),
            None => *vb,
        };
        out = out.insert(*k, v).0;
    }
    out
}

/// Intersection by per-entry lookup + insert.
fn intersection_by_insert(
    a: &Map,
    b: &Map,
    mut combine: impl FnMut(&i64, &i64, &i64) -> Option<i64>,
) -> Map {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Map::new();
    for (k, _) in small.iter().filter(|(k, _)| large.contains_key(k)) {
        if let Some(v) = combine(k, a.get(k).unwrap(), b.get(k).unwrap()) {
            out = out.insert(*k, v).0;
        }
    }
    out
}

/// Difference by per-entry remove (or overwrite with the residual).
fn difference_by_remove(
    a: &Map,
    b: &Map,
    mut combine: impl FnMut(&i64, &i64, &i64) -> Option<i64>,
) -> Map {
    let mut out = a.clone();
    for (k, vb) in b.iter() {
        if let Some(va) = a.get(k) {
            out = match combine(k, va, vb) {
                Some(v) => out.insert(*k, v).0,
                None => out.remove(k).0,
            };
        }
    }
    out
}

/// Every join-based operation on `(a, b)` against its per-element oracle:
/// same entries, B+-tree invariants after every operation, and each
/// `_with` combiner fired exactly once per shared key, in ascending key
/// order, with `a`'s value first.
fn check_bulk_ops(a: &Map, b: &Map, ctx: &str) {
    let shared: Vec<(i64, i64, i64)> = a
        .iter()
        .filter_map(|(k, va)| b.get(k).map(|vb| (*k, *va, *vb)))
        .collect();
    let check = |got: Map, want: Map, op: &str| {
        assert!(
            got.check_invariants(),
            "{ctx}: {op} broke the B+-tree invariants"
        );
        assert_eq!(got.len(), want.len(), "{ctx}: {op} len");
        assert!(
            got == want,
            "{ctx}: {op} differs from its per-element oracle"
        );
    };
    let mix = |k: &i64, x: &i64, y: &i64| k.wrapping_mul(31) ^ x.wrapping_sub(*y);
    let some = |k: &i64, x: &i64, y: &i64| (mix(k, x, y) % 3 != 0).then(|| mix(k, x, y));

    check(
        a.merge_union(b),
        union_by_insert(a, b, |_, x, _| *x),
        "merge_union",
    );
    check(
        a.merge_intersection(b),
        intersection_by_insert(a, b, |_, x, _| Some(*x)),
        "merge_intersection",
    );
    check(
        a.merge_difference(b),
        difference_by_remove(a, b, |_, _, _| None),
        "merge_difference",
    );

    let mut calls = Vec::new();
    let got = a.merge_union_with(b, |k, x, y| {
        calls.push((*k, *x, *y));
        mix(k, x, y)
    });
    check(got, union_by_insert(a, b, mix), "merge_union_with");
    assert_eq!(calls, shared, "{ctx}: merge_union_with combiner calls");

    let mut calls = Vec::new();
    let got = a.merge_intersection_with(b, |k, x, y| {
        calls.push((*k, *x, *y));
        some(k, x, y)
    });
    check(
        got,
        intersection_by_insert(a, b, some),
        "merge_intersection_with",
    );
    assert_eq!(
        calls, shared,
        "{ctx}: merge_intersection_with combiner calls"
    );

    let mut calls = Vec::new();
    let got = a.merge_difference_with(b, |k, x, y| {
        calls.push((*k, *x, *y));
        some(k, x, y)
    });
    check(
        got,
        difference_by_remove(a, b, some),
        "merge_difference_with",
    );
    assert_eq!(calls, shared, "{ctx}: merge_difference_with combiner calls");

    // diff: every key whose entry differs is reported, in ascending order
    let want: Vec<(i64, Option<i64>, Option<i64>)> = a
        .keys()
        .chain(b.keys().filter(|k| !a.contains_key(k)))
        .map(|k| (*k, a.get(k).copied(), b.get(k).copied()))
        .filter(|(_, x, y)| x != y)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let got: Vec<_> = a
        .diff(b)
        .map(|(k, x, y)| (*k, x.copied(), y.copied()))
        .filter(|(_, x, y)| x != y)
        .collect();
    assert_eq!(got, want, "{ctx}: diff");
}

/// The shapes a merge can meet, each in both operand orders.
#[test]
fn join_based_ops_match_oracles_on_adversarial_shapes() {
    let range = |lo: i64, hi: i64, step: i64, tag: i64| {
        Map::from_sorted_vec(
            (lo..hi)
                .step_by(step as usize)
                .map(|k| (k, k ^ tag))
                .collect(),
        )
    };
    let n = 4096;
    let big = range(0, 1 << 16, 1, 0);
    let base = range(0, 2 * n, 2, 1);
    let mut edited = base.clone();
    for i in 0..40 {
        edited = edited.insert(2 * (i * 97) + 1, -i).0;
        edited = edited.insert(2 * (i * 89), -i).0;
        edited = edited.remove(&(2 * (i * 83 + 5))).0;
    }
    let shapes: Vec<(&str, Map, Map)> = vec![
        ("disjoint ranges", range(0, n, 1, 1), range(n, 2 * n, 1, 2)),
        (
            "touching ranges",
            range(0, n, 1, 1),
            range(n - 1, 2 * n, 1, 2),
        ),
        (
            "interleaved, nothing shared",
            base.clone(),
            range(1, 2 * n, 2, 2),
        ),
        (
            "interleaved, every sixth shared",
            base.clone(),
            range(0, 2 * n, 3, 2),
        ),
        (
            "same keys, separate trees",
            base.clone(),
            range(0, 2 * n, 2, 2),
        ),
        ("same tree", base.clone(), base.clone()),
        ("edited copy", base.clone(), edited),
        ("empty side", base.clone(), Map::new()),
        ("both empty", Map::new(), Map::new()),
        (
            "1 present key vs 64k",
            range(40_000, 40_001, 1, 7),
            big.clone(),
        ),
        ("1 key below 64k", range(-5, -4, 1, 7), big.clone()),
        (
            "1 key above 64k",
            range(1 << 20, (1 << 20) + 1, 1, 7),
            big.clone(),
        ),
        (
            "16 spread keys vs 64k",
            range(100, 1 << 16, 1 << 12, 7),
            big.clone(),
        ),
    ];
    for (name, a, b) in &shapes {
        check_bulk_ops(a, b, name);
        check_bulk_ops(b, a, &format!("{name} (swapped)"));
    }
}

proptest! {
    #[test]
    fn join_based_ops_match_oracles_on_random_maps(
        a in prop::collection::btree_map(-300i64..300, any::<i64>(), 0..200),
        b in prop::collection::btree_map(-300i64..300, any::<i64>(), 0..200),
        edits in prop::collection::vec((-300i64..300, any::<i64>()), 0..12),
    ) {
        // independently built (insert order = shape differs from the bulk build)
        let pa = Map::from_iter(a.clone());
        let pb = Map::from_sorted_vec(b.into_iter().collect());
        check_bulk_ops(&pa, &pb, "random maps");
        // a lightly edited snapshot of the same tree: shared subtrees everywhere
        let mut edited = pa.clone();
        for (k, v) in edits {
            edited = if v % 3 == 0 { edited.remove(&k).0 } else { edited.insert(k, v).0 };
        }
        check_bulk_ops(&pa, &edited, "edited snapshot");
        check_bulk_ops(&edited, &pa, "edited snapshot (swapped)");
    }

    #[test]
    fn split_then_join_is_identity(
        entries in prop::collection::btree_map(-200i64..200, any::<i64>(), 0..150),
        key in -220i64..220,
    ) {
        let m = Map::from_iter(entries.clone());
        let (below, hit, above) = m.split(&key);
        prop_assert!(below.check_invariants() && above.check_invariants());
        prop_assert_eq!(hit, entries.get(&key).copied());
        let want_below: Vec<_> = entries.range(..key).map(|(k, v)| (*k, *v)).collect();
        let want_above: Vec<_> = entries.range(key + 1..).map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(self::entries(&below), want_below);
        prop_assert_eq!(self::entries(&above), want_above);
        let back = Map::join(&below, key, 0, &above);
        prop_assert!(back.check_invariants());
        prop_assert!(back == m.insert(key, 0).0);
    }
}

proptest! {
    #[test]
    fn pmap_matches_btreemap(ops in prop::collection::vec(op_strategy(), 0..200)) {
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        let mut map: PMap<i64, i64> = PMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let (next, old) = map.insert(k, v);
                    prop_assert_eq!(old, model.insert(k, v));
                    map = next;
                }
                Op::Remove(k) => {
                    let (next, old) = map.remove(&k);
                    prop_assert_eq!(old, model.remove(&k));
                    map = next;
                }
                Op::UpdateWith(k, d) => {
                    let (next, hit) = map.update_with(&k, |v| v.wrapping_add(d));
                    let model_hit = model.contains_key(&k);
                    if model_hit {
                        *model.get_mut(&k).unwrap() = model[&k].wrapping_add(d);
                    }
                    prop_assert_eq!(hit, model_hit);
                    map = next;
                }
            }
            prop_assert!(map.check_invariants());
            prop_assert_eq!(map.len(), model.len());
        }
        let got: Vec<_> = map.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<_> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn pmap_range_matches_btreemap(
        entries in prop::collection::btree_map(-100i64..100, any::<i64>(), 0..100),
        lo in -120i64..120,
        hi in -120i64..120,
        gone in 0usize..100,
    ) {
        use std::ops::Bound::{Included, Unbounded};
        let keys = |m: &PMap<i64, i64>, lo: Option<&i64>, hi: Option<&i64>| -> Vec<i64> {
            m.range(lo, hi).map(|(k, _)| *k).collect()
        };
        let oracle = |m: &BTreeMap<i64, i64>, lo: Option<i64>, hi: Option<i64>| -> Vec<i64> {
            if matches!((lo, hi), (Some(l), Some(h)) if l > h) {
                // An inverted range is simply empty (BTreeMap::range would panic).
                return Vec::new();
            }
            let bound = |b: Option<i64>| b.map_or(Unbounded, Included);
            m.range((bound(lo), bound(hi))).map(|(k, _)| *k).collect()
        };
        let map = PMap::from_iter(entries.clone());
        // closed, inverted (the drawn pair and its swap cover both), open
        // on either side or both, and a lower bound below the minimum
        let below_min = entries.keys().next().map_or(-121, |min| min - 1);
        for (l, h) in [
            (Some(lo), Some(hi)),
            (Some(hi), Some(lo)),
            (None, Some(hi)),
            (Some(lo), None),
            (None, None),
            (Some(below_min), Some(hi)),
            (Some(below_min), None),
        ] {
            prop_assert_eq!(
                keys(&map, l.as_ref(), h.as_ref()),
                oracle(&entries, l, h),
                "range({:?}, {:?})", l, h
            );
        }
        // a lower bound equal to a key that was just removed: the walk
        // starts at its successor
        if let Some(&k) = entries.keys().nth(gone % entries.len().max(1)) {
            let (map, old) = map.remove(&k);
            prop_assert!(old.is_some());
            let mut model = entries.clone();
            model.remove(&k);
            for h in [Some(hi), None] {
                prop_assert_eq!(
                    keys(&map, Some(&k), h.as_ref()),
                    oracle(&model, Some(k), h),
                    "range({}, {:?}) after remove({})", k, h, k
                );
            }
        }
    }

    #[test]
    fn snapshots_are_immutable(
        base in prop::collection::btree_map(-50i64..50, any::<i64>(), 1..50),
        ops in prop::collection::vec(op_strategy(), 1..50),
    ) {
        let snapshot = PMap::from_iter(base.clone());
        let mut working = snapshot.clone();
        for op in ops {
            working = match op {
                Op::Insert(k, v) => working.insert(k, v).0,
                Op::Remove(k) => working.remove(&k).0,
                Op::UpdateWith(k, d) => working.update_with(&k, |v| v.wrapping_add(d)).0,
            };
        }
        // The original snapshot still equals the base model exactly.
        let got: Vec<_> = snapshot.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<_> = base.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn pmap_nth_matches_sorted_order(
        entries in prop::collection::btree_map(any::<i64>(), any::<i64>(), 0..80)
    ) {
        let map = PMap::from_iter(entries.clone());
        let sorted: Vec<_> = entries.keys().copied().collect();
        for (i, k) in sorted.iter().enumerate() {
            prop_assert_eq!(map.nth(i).map(|(k, _)| *k), Some(*k));
            prop_assert_eq!(map.rank(k), i);
        }
        prop_assert_eq!(map.nth(sorted.len()), None);
    }

    #[test]
    fn pset_ops_match_btreeset(
        a in prop::collection::btree_set(-40i64..40, 0..40),
        b in prop::collection::btree_set(-40i64..40, 0..40),
    ) {
        let pa = PSet::from_iter(a.iter().copied());
        let pb = PSet::from_iter(b.iter().copied());
        let union: Vec<_> = pa.union(&pb).iter().copied().collect();
        let inter: Vec<_> = pa.intersection(&pb).iter().copied().collect();
        let diff: Vec<_> = pa.difference(&pb).iter().copied().collect();
        prop_assert_eq!(union, a.union(&b).copied().collect::<Vec<_>>());
        prop_assert_eq!(inter, a.intersection(&b).copied().collect::<Vec<_>>());
        prop_assert_eq!(diff, a.difference(&b).copied().collect::<Vec<_>>());
    }

    #[test]
    fn from_sorted_vec_equals_repeated_insert(
        entries in prop::collection::btree_map(any::<i64>(), any::<i64>(), 0..200)
    ) {
        let sorted: Vec<(i64, i64)> = entries.iter().map(|(k, v)| (*k, *v)).collect();
        let bulk = PMap::from_sorted_vec(sorted.clone());
        let incremental = PMap::from_iter(sorted.clone());
        // same entries, in the same order, with the same len
        prop_assert_eq!(bulk.len(), incremental.len());
        let b: Vec<_> = bulk.iter().map(|(k, v)| (*k, *v)).collect();
        let i: Vec<_> = incremental.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(&b, &i);
        prop_assert_eq!(b, sorted);
        prop_assert_eq!(bulk, incremental);
        // the B+-tree invariants hold on the bulk-built tree, and its height
        // respects the B+-tree bound: below a root of two or more children
        // every node holds at least half of a fan-out of at least 8, so h
        // levels hold at least 2 · 4^(h − 1) entries
        prop_assert!(bulk.check_invariants());
        if !bulk.is_empty() {
            let bound = 1 + (bulk.len() / 2).max(1).ilog(4) as usize;
            prop_assert!(bulk.tree_height() <= bound,
                "height {} exceeds B+-tree bound {bound} for {} entries",
                bulk.tree_height(), bulk.len());
        }
        // point lookups and order statistics agree
        for (i, (k, v)) in bulk.iter().enumerate() {
            prop_assert_eq!(incremental.get(k), Some(v));
            prop_assert_eq!(bulk.nth(i), Some((k, v)));
            prop_assert_eq!(bulk.rank(k), i);
        }
    }

    #[test]
    fn bulk_built_map_mutates_like_any_other(
        entries in prop::collection::btree_map(-60i64..60, any::<i64>(), 0..80),
        ops in prop::collection::vec(op_strategy(), 0..60),
    ) {
        // a bulk-built tree must be a first-class PMap: inserts/removes on
        // top of it keep all invariants and match the model
        let mut model: BTreeMap<i64, i64> = entries.clone();
        let mut map = PMap::from_sorted_vec(entries.into_iter().collect());
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let (next, old) = map.insert(k, v);
                    prop_assert_eq!(old, model.insert(k, v));
                    map = next;
                }
                Op::Remove(k) => {
                    let (next, old) = map.remove(&k);
                    prop_assert_eq!(old, model.remove(&k));
                    map = next;
                }
                Op::UpdateWith(k, d) => {
                    let (next, _) = map.update_with(&k, |v| v.wrapping_add(d));
                    if let Some(v) = model.get_mut(&k) {
                        *v = v.wrapping_add(d);
                    }
                    map = next;
                }
            }
            prop_assert!(map.check_invariants());
        }
        let got: Vec<_> = map.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<_> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn pset_from_sorted_equals_inserts(
        items in prop::collection::btree_set(any::<i64>(), 0..150)
    ) {
        let sorted: Vec<i64> = items.iter().copied().collect();
        let bulk = PSet::from_sorted_vec(sorted.clone());
        let incremental = PSet::from_iter(sorted.clone());
        prop_assert_eq!(bulk.len(), incremental.len());
        let b: Vec<_> = bulk.iter().copied().collect();
        prop_assert_eq!(b, sorted);
        prop_assert_eq!(bulk, incremental);
    }

    #[test]
    fn pset_merge_setops_match_per_element(
        a in prop::collection::btree_set(-60i64..60, 0..60),
        b in prop::collection::btree_set(-60i64..60, 0..60),
    ) {
        let pa = PSet::from_iter(a.iter().copied());
        let pb = PSet::from_iter(b.iter().copied());
        // the join-based merges must be observably identical to the
        // per-element insert/lookup versions
        prop_assert_eq!(pa.merge_union(&pb), pa.union(&pb));
        prop_assert_eq!(pa.merge_intersection(&pb), pa.intersection(&pb));
        prop_assert_eq!(pa.merge_difference(&pb), pa.difference(&pb));
        prop_assert_eq!(pb.merge_union(&pa), pb.union(&pa));
        prop_assert_eq!(pb.merge_intersection(&pa), pb.intersection(&pa));
        prop_assert_eq!(pb.merge_difference(&pa), pb.difference(&pa));
    }

    #[test]
    fn pmap_merge_setops_match_model(
        a in prop::collection::btree_map(-40i64..40, any::<i64>(), 0..50),
        b in prop::collection::btree_map(-40i64..40, any::<i64>(), 0..50),
    ) {
        let pa = PMap::from_iter(a.clone());
        let pb = PMap::from_iter(b.clone());
        // union: left value wins on shared keys
        let mut want_union = b.clone();
        want_union.extend(a.clone());
        let got: Vec<_> = pa.merge_union(&pb).iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want_union.into_iter().collect::<Vec<_>>());
        // intersection: shared keys, left values
        let got: Vec<_> = pa
            .merge_intersection(&pb)
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        let want: Vec<_> = a
            .iter()
            .filter(|(k, _)| b.contains_key(k))
            .map(|(k, v)| (*k, *v))
            .collect();
        prop_assert_eq!(got, want);
        // difference: left keys absent from right
        let got: Vec<_> = pa
            .merge_difference(&pb)
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        let want: Vec<_> = a
            .iter()
            .filter(|(k, _)| !b.contains_key(k))
            .map(|(k, v)| (*k, *v))
            .collect();
        prop_assert_eq!(got, want);
        prop_assert!(pa.merge_union(&pb).check_invariants());
        prop_assert!(pa.merge_intersection(&pb).check_invariants());
        prop_assert!(pa.merge_difference(&pb).check_invariants());
    }
}

// ---------------------------------------------------------------------------
// Deep trees: maps of up to ~5,000 entries stand three to five levels deep,
// so splits, borrows and merges happen on inner nodes too, and scans cross
// many leaf boundaries. The oracles are `BTreeMap`s.
// ---------------------------------------------------------------------------

type Model = BTreeMap<i64, i64>;

/// `n` entries `3i -> i`, bulk-built: every leaf full, so the first insert
/// into a leaf splits it and removes soon underflow.
fn deep(n: usize) -> (Map, Model) {
    let model: Model = (0..n as i64).map(|i| (3 * i, i)).collect();
    (
        Map::from_sorted_vec(model.clone().into_iter().collect()),
        model,
    )
}

fn model_entries(m: &Model) -> Vec<(i64, i64)> {
    m.iter().map(|(k, v)| (*k, *v)).collect()
}

/// Every merge of `a` and `b` against `BTreeMap` set algebra, with each
/// combiner called once per shared key, in ascending order.
fn check_against_model(a: &Map, b: &Map, ma: &Model, mb: &Model, ctx: &str) {
    let shared: Vec<(i64, i64, i64)> = ma
        .iter()
        .filter_map(|(k, x)| mb.get(k).map(|y| (*k, *x, *y)))
        .collect();
    let check = |got: &Map, want: Model, op: &str| {
        assert!(got.check_invariants(), "{ctx}: {op} broke the invariants");
        assert_eq!(entries(got), model_entries(&want), "{ctx}: {op}");
    };
    let mut union = mb.clone();
    union.extend(ma.clone());
    check(&a.merge_union(b), union.clone(), "merge_union");
    let inter: Model = ma
        .iter()
        .filter(|(k, _)| mb.contains_key(k))
        .map(|(k, v)| (*k, *v))
        .collect();
    check(&a.merge_intersection(b), inter, "merge_intersection");
    let minus: Model = ma
        .iter()
        .filter(|(k, _)| !mb.contains_key(k))
        .map(|(k, v)| (*k, *v))
        .collect();
    check(&a.merge_difference(b), minus.clone(), "merge_difference");

    let mut calls = Vec::new();
    let got = a.merge_union_with(b, |k, x, y| {
        calls.push((*k, *x, *y));
        x.wrapping_sub(*y)
    });
    let mut want = union;
    for (k, x, y) in &shared {
        want.insert(*k, x.wrapping_sub(*y));
    }
    check(&got, want, "merge_union_with");
    assert_eq!(calls, shared, "{ctx}: merge_union_with combiner calls");
    let keep = |k: &i64| k % 2 == 0;
    let mut calls = Vec::new();
    let got = a.merge_intersection_with(b, |k, x, _| {
        calls.push(*k);
        keep(k).then_some(*x)
    });
    let want: Model = shared
        .iter()
        .filter(|(k, _, _)| keep(k))
        .map(|(k, x, _)| (*k, *x))
        .collect();
    check(&got, want, "merge_intersection_with");
    assert!(
        calls.iter().copied().eq(shared.iter().map(|(k, _, _)| *k)),
        "{ctx}: merge_intersection_with combiner calls"
    );
    let mut calls = Vec::new();
    let got = a.merge_difference_with(b, |k, x, _| {
        calls.push(*k);
        keep(k).then_some(*x)
    });
    let mut want = minus;
    want.extend(
        shared
            .iter()
            .filter(|(k, _, _)| keep(k))
            .map(|(k, x, _)| (*k, *x)),
    );
    check(&got, want, "merge_difference_with");
    assert!(
        calls.iter().copied().eq(shared.iter().map(|(k, _, _)| *k)),
        "{ctx}: merge_difference_with combiner calls"
    );

    // diff: exactly the keys whose entries differ, ascending
    let want: Vec<(i64, Option<i64>, Option<i64>)> = ma
        .keys()
        .chain(mb.keys())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .map(|k| (*k, ma.get(k).copied(), mb.get(k).copied()))
        .filter(|(_, x, y)| x != y)
        .collect();
    let got: Vec<_> = a
        .diff(b)
        .map(|(k, x, y)| (*k, x.copied(), y.copied()))
        .filter(|(_, x, y)| x != y)
        .collect();
    assert_eq!(got, want, "{ctx}: diff");
}

proptest! {
    #[test]
    fn deep_removal_runs_match_btreemap(
        n in 1_000usize..5_000,
        start in 0usize..5_000,
        run in 1usize..1_500,
        stride in 1usize..4,
        scrambled in any::<bool>(),
    ) {
        let (bulk, mut model) = deep(n);
        // bulk-built (full leaves) or insert-built (leaves split half full)
        let mut map = if scrambled {
            let k = |i: usize| 3 * ((i * 7919) % n) as i64;
            Map::from_iter((0..n).map(|i| (k(i), k(i) / 3)))
        } else {
            bulk
        };
        prop_assert!(map.tree_height() >= 3, "{} entries, height {}", n, map.tree_height());
        for j in 0..run {
            let key = 3 * (start + j * stride) as i64;
            let (next, old) = map.remove(&key);
            prop_assert_eq!(old, model.remove(&key));
            map = next;
            prop_assert_eq!(map.len(), model.len());
            if j % 97 == 0 {
                prop_assert!(map.check_invariants(), "after removing {}", key);
            }
        }
        prop_assert!(map.check_invariants());
        prop_assert_eq!(entries(&map), model_entries(&model));
    }

    #[test]
    fn deep_range_nth_rank_cross_leaf_boundaries(
        n in 1_000usize..5_000,
        at in 0usize..5_000,
        width in 1i64..300,
        holes in 0usize..400,
    ) {
        let (mut map, mut model) = deep(n);
        // a run of removes leaves some leaves below full and merges others
        for j in 0..holes {
            let key = 3 * ((at + 5 * j) % n) as i64;
            map = map.remove(&key).0;
            model.remove(&key);
        }
        let at = at % n;
        let lo = 3 * at as i64 - 1;
        for (lo, hi) in [(lo, lo + 3 * width), (lo + 1, lo + 1 + 3 * width), (lo + 1, lo + 1)] {
            let got: Vec<i64> = map.range(Some(&lo), Some(&hi)).map(|(k, _)| *k).collect();
            let want: Vec<i64> = model.range(lo..=hi).map(|(k, _)| *k).collect();
            prop_assert_eq!(got, want, "range({}, {})", lo, hi);
        }
        let keys: Vec<i64> = model.keys().copied().collect();
        let window = at.saturating_sub(40)..(at + 40).min(keys.len());
        for i in window {
            let k = keys[i];
            prop_assert_eq!(map.nth(i), Some((&k, &model[&k])));
            prop_assert_eq!(map.rank(&k), i);
            prop_assert_eq!(map.rank(&(k + 1)), i + 1);
        }
        prop_assert_eq!(map.nth(keys.len()), None);
    }

    #[test]
    fn deep_merges_with_an_edited_copy_allocate_per_edit(
        n in 1_000usize..5_000,
        edits in prop::collection::vec((0i64..5_000, 0u8..3), 1..16),
    ) {
        let (base, base_model) = deep(n);
        let (mut edited, mut model) = (base.clone(), base_model.clone());
        for (k, op) in &edits {
            match op {
                0 => {
                    edited = edited.insert(3 * k + 1, -1).0;
                    model.insert(3 * k + 1, -1);
                }
                1 => {
                    edited = edited.remove(&(3 * k)).0;
                    model.remove(&(3 * k));
                }
                _ => {
                    edited = edited.insert(3 * k, -2).0;
                    model.insert(3 * k, -2);
                }
            }
        }
        check_against_model(&base, &edited, &base_model, &model, "base vs edited");
        check_against_model(&edited, &base, &model, &base_model, "edited vs base");
        // a merge of the two shares everything off the edited paths
        let budget = 3 * edits.len() * base.tree_height();
        for (what, result) in [
            ("base ∪ edited", base.merge_union(&edited)),
            ("base ∩ edited", base.merge_intersection(&edited)),
            ("base − edited", base.merge_difference(&edited)),
            ("edited − base", edited.merge_difference(&base)),
        ] {
            let fresh = result.fresh_nodes(&base);
            prop_assert!(
                fresh <= budget,
                "{}: {} fresh nodes for {} edits, budget 3·m·height = {}",
                what, fresh, edits.len(), budget
            );
        }
    }
}
