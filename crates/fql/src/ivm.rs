//! Incremental view maintenance: a materialized query result kept
//! current by **delta propagation** instead of recomputation.
//!
//! [`MaintainedView`] compiles a [`Query`] once (through
//! [`Optimizer::default`], so the maintained plan is the plan ad-hoc
//! evaluation would run) into a tree of maintenance nodes, each holding
//! its operator's materialized output plus whatever auxiliary state its
//! delta rule needs. Feeding a base-table [`DbDelta`] into
//! [`MaintainedView::apply`] walks the tree bottom-up; every node
//! translates its input's row changes into its own and batches them into
//! its output through the join-based merge setops
//! ([`fdm_storage::PMap::merge_union`] / `merge_difference`): a delta of k
//! rows against an n-row output costs O(k · log(n/k + 1)) per node and the
//! new output shares every untouched subtree with the previous one — one
//! copied path per changed row, never a rebuild. The per-plan node-count
//! pin is `one_row_deltas_allocate_logarithmically` in
//! `tests/tests/view_maintenance.rs`.
//!
//! Per-operator delta rules:
//!
//! * **scan** — base changes pass through the same key-inlining the
//!   executor's [`with_inlined_keys`] applies, one tuple at a time;
//! * **filter** — re-evaluates the predicate on changed tuples only;
//! * **project** — projects changed tuples only;
//! * **join** — relies on the executor's canonical-row-id contract
//!   (output keys `[fingerprint hash, rank]` are a pure function of the
//!   produced row *multiset*): the node keeps per-key hash bindings on
//!   both sides plus the provenance of every output row, recomputes only
//!   the probe results of *dirty* left keys, and re-ranks only the hash
//!   buckets those rows touch;
//! * **group/aggregate** — keeps each group's member set keyed by the
//!   grouping value; only *dirty* groups re-aggregate (counted in
//!   [`IvmStats::dirty_groups`]), and within a dirty group `Count` is the
//!   member count and an all-`Int` `Sum` is a running total, so neither
//!   re-reads the group; `Min`/`Max`/`Avg` and sums with a non-`Int`
//!   contribution re-fold the members;
//! * **order-by / limit** — no delta rule: when their input changed they
//!   fall back to a *scoped recompute* (re-running just that operator
//!   over its incrementally-maintained input), counted in
//!   [`IvmStats::fallback_recomputes`]. A wholesale entry rebind
//!   ([`EntryDelta::Replaced`]) likewise falls back at the affected scan
//!   or join, so correctness never depends on delta-rule coverage.
//!
//! The differential-oracle suite (`tests/tests/view_maintenance.rs`)
//! pins every rule against full recomputation; `docs/VIEWS.md` documents
//! the contract.

use crate::aggregate::AggSpec;
use crate::filter::{key_attr_strs, with_inlined_keys, KeyInliner};
use crate::optimizer::Optimizer;
use crate::plan::Query;
use crate::setops::key_map;
use crate::transform::{self, Order};
use fdm_core::delta::{diff_relations, DbDelta, EntryDelta, TupleChange};
use fdm_core::{
    DatabaseF, FdmError, FxHashMap, Name, RelationBuilder, RelationF, Result, TupleF, Value,
};
use fdm_expr::{eval_predicate, Expr};
use fdm_storage::PMap;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Maintenance counters: how much work delta propagation actually did,
/// and how often it had to fall back to scoped recomputation.
#[derive(Debug, Default, Clone)]
pub struct IvmStats {
    /// Number of [`MaintainedView::apply`] calls.
    pub deltas_applied: u64,
    /// Total output-row changes emitted by the root operator.
    pub rows_changed: u64,
    /// Groups re-aggregated across all group/aggregate nodes.
    pub dirty_groups: u64,
    /// Scoped recomputes: operators without a delta rule (order-by,
    /// limit) re-running over their maintained input, plus scans/joins
    /// recovering from a wholesale entry rebind.
    pub fallback_recomputes: u64,
}

/// Group/aggregate state: group key → that group's members and running
/// sums. Both levels iterate in ascending key order, so re-aggregated
/// folds visit members in exactly the order the batch operator does.
type GroupState = BTreeMap<Value, Group>;

/// A `Sum` kept current without re-folding: the wrapping total of the
/// members' `Int` contributions, and how many members contribute anything
/// else (a `Float`, a non-number, a failing computed attribute). While
/// `other` is 0 the batch fold is `Int`-only, and wrapping `i64` addition
/// is commutative and associative, so `Value::Int(total)` is bit-identical
/// to it in whatever order members came and went.
#[derive(Clone, Copy, Default)]
struct IntSum {
    total: i64,
    other: usize,
}

/// One group: its members by input key, and one [`IntSum`] per aggregate
/// (in `aggs` order; only the `Sum` slots are used).
#[derive(Clone)]
struct Group {
    members: BTreeMap<Value, Arc<TupleF>>,
    sums: Vec<IntSum>,
}

impl Group {
    fn new(aggs: &[(String, AggSpec)]) -> Group {
        Group {
            members: BTreeMap::new(),
            sums: vec![IntSum::default(); aggs.len()],
        }
    }

    /// Adds (`joined`) or retracts one member's contribution to every sum.
    fn track(&mut self, aggs: &[(String, AggSpec)], t: &TupleF, joined: bool) {
        for (sum, (_, spec)) in self.sums.iter_mut().zip(aggs) {
            let AggSpec::Sum(attr) = spec else { continue };
            match (t.get(attr), joined) {
                (Ok(Value::Int(i)), true) => sum.total = sum.total.wrapping_add(i),
                (Ok(Value::Int(i)), false) => sum.total = sum.total.wrapping_sub(i),
                (_, true) => sum.other += 1,
                (_, false) => sum.other -= 1,
            }
        }
    }

    /// Stores `t` under `key`, replacing (and retracting) a previous member.
    fn insert(&mut self, aggs: &[(String, AggSpec)], key: Value, t: Arc<TupleF>) {
        self.track(aggs, &t, true);
        if let Some(prev) = self.members.insert(key, t) {
            self.track(aggs, &prev, false);
        }
    }

    fn remove(&mut self, aggs: &[(String, AggSpec)], key: &Value) {
        if let Some(prev) = self.members.remove(key) {
            self.track(aggs, &prev, false);
        }
    }

    /// The `i`-th aggregate over the current members — exactly
    /// [`AggSpec::eval`] over them in key order, read off the running
    /// state where that is provably the same value. `folded` caches the
    /// member list across the aggregates of one group.
    fn agg_value(
        &self,
        i: usize,
        spec: &AggSpec,
        folded: &mut Option<Vec<Arc<TupleF>>>,
    ) -> Result<Value> {
        match spec {
            AggSpec::Count => Ok(Value::Int(self.members.len() as i64)),
            AggSpec::Sum(_) if self.sums[i].other == 0 => Ok(Value::Int(self.sums[i].total)),
            _ => spec.eval(folded.get_or_insert_with(|| self.members.values().cloned().collect())),
        }
    }
}

/// Join state: the cached (key-inlined) right side, hash bindings from
/// join value to the keys carrying it on each side, the provenance of
/// every emitted output row, and the canonical-row-id buckets.
#[derive(Clone)]
struct JoinState {
    /// Right side with key attributes inlined, kept current from deltas.
    right: RelationF,
    right_key_names: Vec<Name>,
    /// join value → right-side keys holding it.
    right_idx: FxHashMap<Value, Vec<Value>>,
    /// join value → left-side keys holding it.
    left_idx: FxHashMap<Value, Vec<Value>>,
    /// left key → the output rows its probe produced.
    provenance: FxHashMap<Value, Vec<Arc<TupleF>>>,
    /// fingerprint hash → output rows (the canonical-id multiset).
    buckets: FxHashMap<u64, Vec<Arc<TupleF>>>,
}

/// An operator without a delta rule, maintained by scoped recompute.
#[derive(Clone)]
enum FallbackOp {
    OrderBy { attr: String, order: Order },
    Limit { k: usize },
}

/// One maintenance node: the operator, its materialized output, and its
/// delta state.
#[derive(Clone)]
enum Node {
    Scan {
        rel: String,
        key_names: Vec<Name>,
        out: RelationF,
    },
    Filter {
        input: Box<Node>,
        pred: Expr,
        out: RelationF,
    },
    Project {
        input: Box<Node>,
        attrs: Vec<String>,
        out: RelationF,
    },
    Join {
        input: Box<Node>,
        rel: String,
        input_attr: String,
        rel_attr: String,
        state: Box<JoinState>,
        out: RelationF,
    },
    GroupAgg {
        input: Box<Node>,
        by: Vec<String>,
        aggs: Vec<(String, AggSpec)>,
        state: GroupState,
        out: RelationF,
    },
    Fallback {
        input: Box<Node>,
        op: FallbackOp,
        out: RelationF,
    },
}

/// Batches a node's output changes into its materialized relation via
/// the join-based merge setops: one `merge_union` for inserts/updates, one
/// `merge_difference` for removes. For k changes against n rows that is
/// O(k · log(n/k + 1)) time and allocation; every subtree of the previous
/// output no change falls into is shared, not copied.
fn apply_changes(out: &RelationF, changes: &[TupleChange]) -> Result<RelationF> {
    if changes.is_empty() {
        return Ok(out.clone());
    }
    let base = key_map(out)?;
    let mut sorted: Vec<&TupleChange> = changes.iter().collect();
    sorted.sort_by(|a, b| a.key.cmp(&b.key));
    let mut ups: Vec<(Value, Arc<TupleF>)> = Vec::new();
    let mut dels: Vec<(Value, Arc<TupleF>)> = Vec::new();
    for c in sorted {
        match (&c.new, &c.old) {
            (Some(t), _) => ups.push((c.key.clone(), t.clone())),
            (None, Some(t)) => dels.push((c.key.clone(), t.clone())),
            (None, None) => {}
        }
    }
    // left-biased union: a changed key's new tuple wins over the old one
    let mut merged = PMap::from_sorted_vec(ups).merge_union(&base);
    if !dels.is_empty() {
        merged = merged.merge_difference(&PMap::from_sorted_vec(dels));
    }
    Ok(RelationF::from_stored_map(
        out.name(),
        &key_attr_strs(out),
        merged,
    ))
}

/// The batch group-key rule: the single by-value, or a `Value::List` of
/// them for composite groupings.
fn group_key(t: &TupleF, by: &[String]) -> Result<Value> {
    let mut vals = Vec::with_capacity(by.len());
    for attr in by {
        vals.push(t.get(attr)?);
    }
    Ok(if vals.len() == 1 {
        vals.pop().expect("one")
    } else {
        Value::list(vals)
    })
}

/// Re-aggregates one group, reproducing the batch operator's output
/// tuple exactly (name, by-attributes, aggregate attributes, member
/// fold order).
fn agg_tuple_for(
    key: &Value,
    by: &[String],
    aggs: &[(String, AggSpec)],
    group: &Group,
) -> Result<TupleF> {
    let mut t = TupleF::builder(format!("agg[{key}]"));
    match (key, by.len()) {
        (Value::List(parts), n) if n > 1 => {
            for (name, v) in by.iter().zip(parts.iter()) {
                t = t.attr(name.as_str(), v.clone());
            }
        }
        (v, _) => {
            t = t.attr(by[0].as_str(), v.clone());
        }
    }
    let mut folded = None;
    for (i, (name, spec)) in aggs.iter().enumerate() {
        t = t.attr(name.as_str(), group.agg_value(i, spec, &mut folded)?);
    }
    Ok(t.build())
}

/// The probe results of one left tuple against the current right index:
/// the executor's row construction (left attributes, then the right
/// tuple's attributes qualified by relation name), one row per match.
fn probe_rows(
    lt: &Arc<TupleF>,
    input_attr: &str,
    rel: &str,
    state: &JoinState,
) -> Result<Vec<Arc<TupleF>>> {
    let jv = lt.get(input_attr)?;
    let Some(rkeys) = state.right_idx.get(&jv) else {
        return Ok(Vec::new());
    };
    let mut joiner = crate::join::RowJoiner::new(rel);
    let mut left_values = Vec::new();
    lt.values_into(&mut left_values)?;
    let mut rows = Vec::with_capacity(rkeys.len());
    for rk in rkeys {
        let rt = state.right.lookup(rk).ok_or_else(|| {
            FdmError::Other(format!("ivm join: right index points at missing key {rk}"))
        })?;
        rows.push(Arc::new(joiner.tuple(lt.shape(), &left_values, &rt)?));
    }
    Ok(rows)
}

/// A hash bucket's rows in canonical rank order: singleton buckets keep
/// their row at rank 0, colliding buckets order by the full canonical
/// data key — the executor's rank rule.
fn ranked(bucket: &[Arc<TupleF>]) -> Result<Vec<Arc<TupleF>>> {
    let mut sorted = bucket.to_vec();
    if sorted.len() > 1 {
        for t in &sorted {
            t.fingerprint()?; // cache (and surface errors) before sorting
        }
        sorted.sort_by(|a, b| {
            let ka = a.fingerprint().expect("cached above").value();
            let kb = b.fingerprint().expect("cached above").value();
            ka.cmp(kb)
        });
    }
    Ok(sorted)
}

/// The canonical-row-id key for `(hash, rank)` — the executor's join
/// output key shape.
fn row_key(hash: u64, rank: usize) -> Value {
    Value::list([Value::Int(hash as i64), Value::Int(rank as i64)])
}

/// Builds the full join output from the bucket multiset — used at
/// registration and on fallback rebuilds; incremental applies only
/// re-rank dirty buckets.
fn join_out(buckets: &FxHashMap<u64, Vec<Arc<TupleF>>>) -> Result<RelationF> {
    let n: usize = buckets.values().map(Vec::len).sum();
    let mut keyed: Vec<(i64, i64, Arc<TupleF>)> = Vec::with_capacity(n);
    for (hash, bucket) in buckets {
        for (rank, t) in ranked(bucket)?.into_iter().enumerate() {
            keyed.push((*hash as i64, rank as i64, t));
        }
    }
    keyed.sort_unstable_by_key(|(hash, rank, _)| (*hash, *rank));
    let mut out = RelationBuilder::new("join", &["row"]).with_capacity(keyed.len());
    for (hash, rank, t) in keyed {
        out.push_arc(Value::list([Value::Int(hash), Value::Int(rank)]), t);
    }
    out.build()
}

/// Drops one vector entry from a hash binding, pruning empty bindings.
fn unbind(idx: &mut FxHashMap<Value, Vec<Value>>, jv: &Value, key: &Value) {
    if let Some(keys) = idx.get_mut(jv) {
        if let Some(p) = keys.iter().position(|k| k == key) {
            keys.remove(p);
        }
        if keys.is_empty() {
            idx.remove(jv);
        }
    }
}

/// Builds join state + output for the current left/right contents.
fn build_join_state(
    left: &RelationF,
    right: RelationF,
    input_attr: &str,
    rel_attr: &str,
    rel_name: &str,
) -> Result<(JoinState, RelationF)> {
    let mut state = JoinState {
        right_key_names: right.key_attrs().to_vec(),
        right,
        right_idx: FxHashMap::default(),
        left_idx: FxHashMap::default(),
        provenance: FxHashMap::default(),
        buckets: FxHashMap::default(),
    };
    for (rk, rt) in state.right.tuples()? {
        state
            .right_idx
            .entry(rt.get(rel_attr)?)
            .or_default()
            .push(rk);
    }
    for (lk, lt) in left.tuples()? {
        let jv = lt.get(input_attr)?;
        state.left_idx.entry(jv).or_default().push(lk.clone());
        let rows = probe_rows(&lt, input_attr, rel_name, &state)?;
        for row in &rows {
            let h = row.fingerprint()?.hash();
            state.buckets.entry(h).or_default().push(row.clone());
        }
        if !rows.is_empty() {
            state.provenance.insert(lk, rows);
        }
    }
    let out = join_out(&state.buckets)?;
    Ok((state, out))
}

impl Node {
    /// This node's materialized output.
    fn out(&self) -> &RelationF {
        match self {
            Node::Scan { out, .. }
            | Node::Filter { out, .. }
            | Node::Project { out, .. }
            | Node::Join { out, .. }
            | Node::GroupAgg { out, .. }
            | Node::Fallback { out, .. } => out,
        }
    }

    /// Builds the maintenance tree for `plan`, materializing every
    /// operator's output exactly as [`Query::eval`] would.
    fn build(plan: &Query, db: &DatabaseF) -> Result<Node> {
        match plan {
            Query::Scan { rel } => {
                let out = with_inlined_keys(db.relation(rel)?.as_ref())?;
                Ok(Node::Scan {
                    rel: rel.clone(),
                    key_names: out.key_attrs().to_vec(),
                    out,
                })
            }
            Query::Filter { input, pred } => {
                let child = Node::build(input, db)?;
                let out = crate::filter::filter_bound(child.out(), pred)?;
                Ok(Node::Filter {
                    input: Box::new(child),
                    pred: pred.clone(),
                    out,
                })
            }
            Query::Project { input, attrs } => {
                let child = Node::build(input, db)?;
                let keep: Vec<&str> = attrs.iter().map(String::as_str).collect();
                let mut out = child.out().builder_like();
                for (key, tuple) in child.out().tuples()? {
                    out.push(key, tuple.project(&keep)?);
                }
                Ok(Node::Project {
                    input: Box::new(child),
                    attrs: attrs.clone(),
                    out: out.build()?,
                })
            }
            Query::Join {
                input,
                rel,
                input_attr,
                rel_attr,
            } => {
                let child = Node::build(input, db)?;
                let right = with_inlined_keys(db.relation(rel)?.as_ref())?;
                let (state, out) = build_join_state(child.out(), right, input_attr, rel_attr, rel)?;
                Ok(Node::Join {
                    input: Box::new(child),
                    rel: rel.clone(),
                    input_attr: input_attr.clone(),
                    rel_attr: rel_attr.clone(),
                    state: Box::new(state),
                    out,
                })
            }
            Query::GroupAgg { input, by, aggs } => {
                let child = Node::build(input, db)?;
                let mut state = GroupState::new();
                for (key, tuple) in child.out().tuples()? {
                    state
                        .entry(group_key(&tuple, by)?)
                        .or_insert_with(|| Group::new(aggs))
                        .insert(aggs, key, tuple);
                }
                let by_refs: Vec<&str> = by.iter().map(String::as_str).collect();
                let agg_refs: Vec<(&str, AggSpec)> =
                    aggs.iter().map(|(n, a)| (n.as_str(), a.clone())).collect();
                let out = crate::aggregate::group_and_aggregate(child.out(), &by_refs, &agg_refs)?;
                Ok(Node::GroupAgg {
                    input: Box::new(child),
                    by: by.clone(),
                    aggs: aggs.clone(),
                    state,
                    out,
                })
            }
            Query::OrderBy { input, attr, order } => {
                let child = Node::build(input, db)?;
                let out = transform::order_by(child.out(), attr, *order)?;
                Ok(Node::Fallback {
                    input: Box::new(child),
                    op: FallbackOp::OrderBy {
                        attr: attr.clone(),
                        order: *order,
                    },
                    out,
                })
            }
            Query::Limit { input, k } => {
                let child = Node::build(input, db)?;
                let out = transform::limit(child.out(), *k)?;
                Ok(Node::Fallback {
                    input: Box::new(child),
                    op: FallbackOp::Limit { k: *k },
                    out,
                })
            }
            Query::Invalid { message } => Err(FdmError::Expr(message.clone())),
        }
    }

    /// Propagates a base delta through this node, updating its output
    /// and returning the output's own row changes.
    fn apply(
        &mut self,
        db: &DatabaseF,
        delta: &DbDelta,
        stats: &mut IvmStats,
    ) -> Result<Vec<TupleChange>> {
        match self {
            Node::Scan {
                rel,
                key_names,
                out,
            } => match delta.entry(rel) {
                None => Ok(Vec::new()),
                Some(EntryDelta::Rows(base_changes)) => {
                    let mut changes = Vec::new();
                    let mut inliner = KeyInliner::new(key_names);
                    for c in base_changes {
                        let old = out.lookup(&c.key);
                        let new = c.new.as_ref().map(|t| inliner.inline(&c.key, t));
                        match (&old, &new) {
                            (Some(a), Some(b)) if a.eq_data(b) => continue,
                            (None, None) => continue,
                            _ => changes.push(TupleChange {
                                key: c.key.clone(),
                                old,
                                new,
                            }),
                        }
                    }
                    *out = apply_changes(out, &changes)?;
                    Ok(changes)
                }
                Some(EntryDelta::Replaced) => {
                    let new_out = with_inlined_keys(db.relation(rel)?.as_ref())?;
                    let changes = diff_relations(out, &new_out)?;
                    *key_names = new_out.key_attrs().to_vec();
                    *out = new_out;
                    stats.fallback_recomputes += 1;
                    Ok(changes)
                }
            },
            Node::Filter { input, pred, out } => {
                let child_changes = input.apply(db, delta, stats)?;
                let mut changes = Vec::new();
                for c in &child_changes {
                    let new = match &c.new {
                        Some(t) if eval_predicate(pred, t).map_err(FdmError::from)? => {
                            Some(t.clone())
                        }
                        _ => None,
                    };
                    let old = out.lookup(&c.key);
                    match (&old, &new) {
                        (Some(a), Some(b)) if a.eq_data(b) => continue,
                        (None, None) => continue,
                        _ => changes.push(TupleChange {
                            key: c.key.clone(),
                            old,
                            new,
                        }),
                    }
                }
                *out = apply_changes(out, &changes)?;
                Ok(changes)
            }
            Node::Project { input, attrs, out } => {
                let child_changes = input.apply(db, delta, stats)?;
                let keep: Vec<&str> = attrs.iter().map(String::as_str).collect();
                let mut changes = Vec::new();
                for c in &child_changes {
                    let new = match &c.new {
                        Some(t) => Some(Arc::new(t.project(&keep)?)),
                        None => None,
                    };
                    let old = out.lookup(&c.key);
                    match (&old, &new) {
                        (Some(a), Some(b)) if a.eq_data(b) => continue,
                        (None, None) => continue,
                        _ => changes.push(TupleChange {
                            key: c.key.clone(),
                            old,
                            new,
                        }),
                    }
                }
                *out = apply_changes(out, &changes)?;
                Ok(changes)
            }
            Node::Join {
                input,
                rel,
                input_attr,
                rel_attr,
                state,
                out,
            } => {
                let child_changes = input.apply(db, delta, stats)?;
                if matches!(delta.entry(rel), Some(EntryDelta::Replaced)) {
                    // wholesale right-side rebind: scoped rebuild of this
                    // operator from its (already maintained) input
                    let right = with_inlined_keys(db.relation(rel)?.as_ref())?;
                    let (new_state, new_out) =
                        build_join_state(input.out(), right, input_attr, rel_attr, rel)?;
                    let changes = diff_relations(out, &new_out)?;
                    **state = new_state;
                    *out = new_out;
                    stats.fallback_recomputes += 1;
                    return Ok(changes);
                }
                let mut dirty_left: BTreeSet<Value> = BTreeSet::new();
                // 1. right-side base changes: refresh the cached right
                // relation + hash bindings, dirtying every left key bound
                // to an affected join value
                if let Some(EntryDelta::Rows(base_changes)) = delta.entry(rel) {
                    let mut right_changes = Vec::new();
                    let mut inliner = KeyInliner::new(&state.right_key_names);
                    for c in base_changes {
                        let old = state.right.lookup(&c.key);
                        if let Some(ot) = &old {
                            let jv = ot.get(rel_attr)?;
                            if let Some(lks) = state.left_idx.get(&jv) {
                                dirty_left.extend(lks.iter().cloned());
                            }
                            unbind(&mut state.right_idx, &jv, &c.key);
                        }
                        let new = c.new.as_ref().map(|t| inliner.inline(&c.key, t));
                        if let Some(nt) = &new {
                            if let Some(ot) = &old {
                                if ot.eq_data(nt) {
                                    // no-op after inlining: rebind and move on
                                    let jv = nt.get(rel_attr)?;
                                    state.right_idx.entry(jv).or_default().push(c.key.clone());
                                    continue;
                                }
                            }
                            let jv = nt.get(rel_attr)?;
                            if let Some(lks) = state.left_idx.get(&jv) {
                                dirty_left.extend(lks.iter().cloned());
                            }
                            state.right_idx.entry(jv).or_default().push(c.key.clone());
                        }
                        if old.is_some() || new.is_some() {
                            right_changes.push(TupleChange {
                                key: c.key.clone(),
                                old,
                                new,
                            });
                        }
                    }
                    state.right = apply_changes(&state.right, &right_changes)?;
                }
                // 2. left-side (child) changes: refresh the left hash
                // bindings; every changed left key is dirty
                for c in &child_changes {
                    if let Some(ot) = &c.old {
                        unbind(&mut state.left_idx, &ot.get(input_attr)?, &c.key);
                    }
                    if let Some(nt) = &c.new {
                        state
                            .left_idx
                            .entry(nt.get(input_attr)?)
                            .or_default()
                            .push(c.key.clone());
                    }
                    dirty_left.insert(c.key.clone());
                }
                // 3. re-probe dirty left keys only, swapping their old
                // output rows for fresh ones in the canonical-id buckets
                let mut dirty_hashes: BTreeSet<u64> = BTreeSet::new();
                for lk in &dirty_left {
                    if let Some(rows) = state.provenance.remove(lk) {
                        for row in rows {
                            let h = row.fingerprint()?.hash();
                            if let Some(bucket) = state.buckets.get_mut(&h) {
                                if let Some(p) = bucket.iter().position(|r| Arc::ptr_eq(r, &row)) {
                                    bucket.swap_remove(p);
                                }
                                if bucket.is_empty() {
                                    state.buckets.remove(&h);
                                }
                            }
                            dirty_hashes.insert(h);
                        }
                    }
                    if let Some(lt) = input.out().lookup(lk) {
                        let rows = probe_rows(&lt, input_attr, rel, state)?;
                        for row in &rows {
                            let h = row.fingerprint()?.hash();
                            state.buckets.entry(h).or_default().push(row.clone());
                            dirty_hashes.insert(h);
                        }
                        if !rows.is_empty() {
                            state.provenance.insert(lk.clone(), rows);
                        }
                    }
                }
                // 4. re-rank dirty buckets and diff them positionally
                // against the current output under their `[hash, rank]`
                // keys — untouched buckets never move
                let mut changes = Vec::new();
                for h in dirty_hashes {
                    let new_ranked = match state.buckets.get(&h) {
                        Some(bucket) => ranked(bucket)?,
                        None => Vec::new(),
                    };
                    let mut rank = 0usize;
                    loop {
                        let key = row_key(h, rank);
                        let old = out.lookup(&key);
                        let new = new_ranked.get(rank).cloned();
                        match (&old, &new) {
                            (None, None) => break,
                            (Some(a), Some(b)) if a.eq_data(b) => {}
                            _ => changes.push(TupleChange { key, old, new }),
                        }
                        rank += 1;
                    }
                }
                *out = apply_changes(out, &changes)?;
                Ok(changes)
            }
            Node::GroupAgg {
                input,
                by,
                aggs,
                state,
                out,
            } => {
                let child_changes = input.apply(db, delta, stats)?;
                let mut dirty: BTreeSet<Value> = BTreeSet::new();
                for c in &child_changes {
                    if let Some(ot) = &c.old {
                        let gk = group_key(ot, by)?;
                        if let Some(group) = state.get_mut(&gk) {
                            group.remove(aggs, &c.key);
                            if group.members.is_empty() {
                                state.remove(&gk);
                            }
                        }
                        dirty.insert(gk);
                    }
                    if let Some(nt) = &c.new {
                        let gk = group_key(nt, by)?;
                        state
                            .entry(gk.clone())
                            .or_insert_with(|| Group::new(aggs))
                            .insert(aggs, c.key.clone(), nt.clone());
                        dirty.insert(gk);
                    }
                }
                stats.dirty_groups += dirty.len() as u64;
                let mut changes = Vec::new();
                for gk in dirty {
                    let new = match state.get(&gk) {
                        Some(group) => Some(Arc::new(agg_tuple_for(&gk, by, aggs, group)?)),
                        None => None, // the group emptied out
                    };
                    let old = out.lookup(&gk);
                    match (&old, &new) {
                        (Some(a), Some(b)) if a.eq_data(b) => continue,
                        (None, None) => continue,
                        _ => changes.push(TupleChange { key: gk, old, new }),
                    }
                }
                *out = apply_changes(out, &changes)?;
                Ok(changes)
            }
            Node::Fallback { input, op, out } => {
                let child_changes = input.apply(db, delta, stats)?;
                if child_changes.is_empty() {
                    return Ok(Vec::new());
                }
                let new_out = match op {
                    FallbackOp::OrderBy { attr, order } => {
                        transform::order_by(input.out(), attr, *order)?
                    }
                    FallbackOp::Limit { k } => transform::limit(input.out(), *k)?,
                };
                let changes = diff_relations(out, &new_out)?;
                *out = new_out;
                stats.fallback_recomputes += 1;
                Ok(changes)
            }
        }
    }
}

/// A materialized query result maintained by delta propagation.
///
/// Built against a database snapshot, then kept current by feeding the
/// [`DbDelta`] of each subsequent version into [`apply`](Self::apply) —
/// the transaction layer's `ViewCatalog` does this from commit
/// writesets; standalone users can diff snapshots with
/// [`DbDelta::between`].
#[derive(Clone)]
pub struct MaintainedView {
    name: String,
    plan: Query,
    root: Node,
    stats: IvmStats,
}

impl MaintainedView {
    /// Compiles `query` through [`Optimizer::default`] (so the
    /// maintained plan matches ad-hoc evaluation) and materializes it
    /// against `db`.
    pub fn new(name: impl Into<String>, query: Query, db: &DatabaseF) -> Result<MaintainedView> {
        let plan = Optimizer::default().optimize(query, db);
        Self::with_plan(name, plan, db)
    }

    /// Materializes an already-optimized plan against `db` without
    /// re-optimizing — for callers pinning an exact operator tree.
    pub fn with_plan(
        name: impl Into<String>,
        plan: Query,
        db: &DatabaseF,
    ) -> Result<MaintainedView> {
        let root = Node::build(&plan, db)?;
        Ok(MaintainedView {
            name: name.into(),
            plan,
            root,
            stats: IvmStats::default(),
        })
    }

    /// Propagates one base-table delta (the changes from the database
    /// the view is current for, to `db`) through the plan. Returns the
    /// number of output rows that changed.
    pub fn apply(&mut self, db: &DatabaseF, delta: &DbDelta) -> Result<usize> {
        let changes = self.root.apply(db, delta, &mut self.stats)?;
        self.stats.deltas_applied += 1;
        self.stats.rows_changed += changes.len() as u64;
        Ok(changes.len())
    }

    /// The maintained result, renamed to the view's name.
    pub fn relation(&self) -> RelationF {
        self.root.out().renamed(&self.name)
    }

    /// The view's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The optimized plan being maintained.
    pub fn plan(&self) -> &Query {
        &self.plan
    }

    /// Maintenance counters.
    pub fn stats(&self) -> &IvmStats {
        &self.stats
    }

    /// Every relation the view keeps materialized — each operator's
    /// output, root first, and after a join's output its cached right
    /// side (test support for the structure-sharing pins).
    #[doc(hidden)]
    pub fn maintained_relations(&self) -> Vec<RelationF> {
        let mut out = Vec::new();
        let mut node = Some(&self.root);
        while let Some(n) = node {
            out.push(n.out().clone());
            node = match n {
                Node::Scan { .. } => None,
                Node::Join { input, state, .. } => {
                    out.push(state.right.clone());
                    Some(input)
                }
                Node::Filter { input, .. }
                | Node::Project { input, .. }
                | Node::GroupAgg { input, .. }
                | Node::Fallback { input, .. } => Some(input),
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{retail_db, skewed_db};
    use fdm_core::FnValue;
    use fdm_expr::Params;
    use proptest::prelude::*;

    /// One step of a member stream: `(input key, Some(value of "x") | None = delete)`.
    fn member_step() -> impl Strategy<Value = (i64, Option<Value>)> {
        let x = prop_oneof![
            (-50i64..50).prop_map(Value::Int),
            // near the ends of i64, so running totals wrap around
            (0i64..4).prop_map(|d| Value::Int(i64::MAX - d)),
            (0i64..4).prop_map(|d| Value::Int(i64::MIN + d)),
            (-8i64..8).prop_map(|h| Value::Float(h as f64 / 2.0)),
        ];
        (
            0i64..12,
            prop_oneof![x.prop_map(Some), (0i64..1).prop_map(|_| None)],
        )
    }

    proptest! {
        /// The running-state path of a group ≡ `AggSpec::eval` over its
        /// member set, bit for bit, after every step of a random
        /// insert/update/delete stream — through Int→Float and Float→Int
        /// transitions of a member and `i64` wrap-around of the total.
        #[test]
        fn group_running_state_matches_refold(steps in prop::collection::vec(member_step(), 1..60)) {
            let aggs: Vec<(String, AggSpec)> = [
                AggSpec::Count,
                AggSpec::Sum("x".into()),
                AggSpec::Min("x".into()),
                AggSpec::Max("x".into()),
                AggSpec::Avg("x".into()),
            ]
            .into_iter()
            .enumerate()
            .map(|(i, spec)| (format!("a{i}"), spec))
            .collect();
            let mut group = Group::new(&aggs);
            for (key, x) in steps {
                match x {
                    Some(x) => group.insert(
                        &aggs,
                        Value::Int(key),
                        Arc::new(TupleF::builder("m").attr("x", x).build()),
                    ),
                    None => group.remove(&aggs, &Value::Int(key)),
                }
                let members: Vec<Arc<TupleF>> = group.members.values().cloned().collect();
                let mut folded = None;
                for (i, (_, spec)) in aggs.iter().enumerate() {
                    let got = group.agg_value(i, spec, &mut folded);
                    let want = spec.eval(&members);
                    prop_assert_eq!(
                        format!("{got:?}"),
                        format!("{want:?}"),
                        "{:?} over {} members",
                        spec,
                        members.len()
                    );
                }
            }
        }
    }

    fn keyed(rel: &RelationF) -> Vec<(Value, Value)> {
        rel.tuples()
            .unwrap()
            .into_iter()
            .map(|(k, t)| (k, t.data_key().unwrap()))
            .collect()
    }

    fn check(view: &MaintainedView, db: &DatabaseF) {
        let fresh = view.plan().clone().eval(db).unwrap();
        assert_eq!(
            keyed(&view.relation()),
            keyed(&fresh),
            "maintained output drifted from recompute for {}",
            view.name()
        );
    }

    fn step(view: &mut MaintainedView, before: &DatabaseF, after: &DatabaseF) {
        let delta = DbDelta::between(before, after).unwrap();
        view.apply(after, &delta).unwrap();
        check(view, after);
    }

    #[test]
    fn filter_group_join_track_point_writes() {
        let db = retail_db();
        let q = Query::scan("customers")
            .filter("age > $min", Params::new().set("min", 30))
            .group_agg(&["age"], &[("n", AggSpec::Count)]);
        let mut v = MaintainedView::new("olds", q, &db).unwrap();
        check(&v, &db);

        // insert a customer into an existing group
        let customers = db.relation("customers").unwrap();
        let db2 = db.with_relation(
            customers
                .insert(
                    Value::Int(9),
                    TupleF::builder("c9")
                        .attr("name", "Dawn")
                        .attr("age", 43)
                        .build(),
                )
                .unwrap(),
        );
        step(&mut v, &db, &db2);
        // update an age across the filter boundary, then delete
        let db3 = db2.with_relation(
            db2.relation("customers")
                .unwrap()
                .update_attr(&Value::Int(1), "age", Value::Int(20))
                .unwrap(),
        );
        step(&mut v, &db2, &db3);
        let db4 = db3.with_relation(
            db3.relation("customers")
                .unwrap()
                .delete(&Value::Int(3))
                .unwrap(),
        );
        step(&mut v, &db3, &db4);
        assert!(v.stats().dirty_groups >= 2);
    }

    #[test]
    fn join_reprobes_only_dirty_keys_and_falls_back_on_rebind() {
        let db = skewed_db();
        let q = Query::scan("base")
            .join("wide", "wk", "k")
            .project(&["nk", "wide.wv"]);
        let mut v = MaintainedView::new("j", q, &db).unwrap();
        check(&v, &db);

        // right-side update: only left keys bound to that join value re-probe
        let wide = db.relation("wide").unwrap();
        let db2 = db.with_relation(
            wide.update_attr(&Value::Int(1), "wv", Value::Int(999))
                .unwrap(),
        );
        step(&mut v, &db, &db2);
        // left-side insert
        let base = db2.relation("base").unwrap();
        let db3 = db2.with_relation(
            base.insert(
                Value::Int(100),
                TupleF::builder("b").attr("wk", 2).attr("nk", 1).build(),
            )
            .unwrap(),
        );
        step(&mut v, &db2, &db3);
        assert_eq!(v.stats().fallback_recomputes, 0);

        // a wholesale rebind of the right side (what the catalog emits
        // for an `Assign` op) forces the scoped rebuild, even when the
        // new binding happens to hold different data
        let db4 = db3.with_entry(
            "wide",
            FnValue::from(
                db3.relation("wide")
                    .unwrap()
                    .update_attr(&Value::Int(2), "wv", Value::Int(-5))
                    .unwrap(),
            ),
        );
        let delta = DbDelta {
            entries: vec![(fdm_core::Name::from("wide"), EntryDelta::Replaced)],
        };
        v.apply(&db4, &delta).unwrap();
        check(&v, &db4);
        assert!(v.stats().fallback_recomputes >= 1);
    }

    #[test]
    fn order_by_and_limit_fall_back_scoped() {
        let db = skewed_db();
        let q = Query::scan("base").order_by("nk", Order::Desc).limit(3);
        let mut v = MaintainedView::new("top", q, &db).unwrap();
        check(&v, &db);
        let base = db.relation("base").unwrap();
        let db2 = db.with_relation(
            base.insert(
                Value::Int(50),
                TupleF::builder("b").attr("wk", 1).attr("nk", 99).build(),
            )
            .unwrap(),
        );
        step(&mut v, &db, &db2);
        assert!(
            v.stats().fallback_recomputes >= 2,
            "order_by and limit recompute"
        );
        // a no-op delta leaves the fallback untouched
        let before = v.stats().fallback_recomputes;
        step(&mut v, &db2, &db2);
        assert_eq!(v.stats().fallback_recomputes, before);
    }
}
