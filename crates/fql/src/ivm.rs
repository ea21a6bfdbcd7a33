//! Incremental view maintenance: a materialized query result kept
//! current by **delta propagation** instead of recomputation.
//!
//! [`MaintainedView`] compiles a [`Query`] once (through
//! [`Optimizer::default`], so the maintained plan is the plan ad-hoc
//! evaluation would run) into a tree of maintenance nodes, each holding
//! only what its delta rule reads back. Feeding a base-table [`DbDelta`]
//! into [`MaintainedView::apply`] walks the tree bottom-up; every node
//! translates its input's row changes into its own, and a node that keeps
//! its output edits them into it in place ([`fdm_storage::PMap::set`] /
//! [`fdm_storage::PMap::unset`] through [`RelationF::stored_map_mut`]):
//! k rows against an n-row output cost O(k · log n), and the new output
//! shares every untouched subtree with the previous one — at most one
//! copied path per changed row, and none where no reader holds the
//! previous output, never a rebuild
//! (`one_row_deltas_allocate_logarithmically` in
//! `tests/tests/view_maintenance.rs`).
//!
//! Per-operator delta rules:
//!
//! * **scan / filter / project** — pure change transformers that read a
//!   change the way the physical executor reads a row: both sides of a
//!   change come from the incoming [`TupleChange`] and travel as
//!   `physical::Row`s — the stored tuple, with the key parts it lacks read
//!   lazily off the key (a tuple with computed attributes is inlined
//!   first, as the executor's scan does). The filter re-evaluates its
//!   predicate and the projection projects, each through what it derived
//!   once per input shape and kept for the life of the view — the scan's
//!   key-inlining memo too, so the shapes a commit's rows arrive in are
//!   the ones the operators above derived for (`apply` trusts the delta's
//!   `old` side, as its contract says). Changes stream from operator to
//!   operator; a key-appended tuple is built only where a node stores
//!   it. They keep **no** relation unless they are the plan root or the
//!   direct input of an operator that re-reads it (a join's left side,
//!   order-by, limit) — decided from the plan, one rule either way
//!   (`stateless_operators_keep_no_relation`);
//! * **join** — relies on the executor's canonical-row-id contract
//!   (output keys `[fingerprint hash, rank]` are a pure function of the
//!   produced row *multiset*): the node keeps per-key hash bindings on
//!   both sides plus the provenance of every output row, recomputes only
//!   the probe results of *dirty* left keys, and re-ranks only the hash
//!   buckets those rows touch;
//! * **group/aggregate** — keeps each group's member set keyed by the
//!   grouping value, each member as the row it arrived as (a stored tuple
//!   and the key parts it lacks); only *dirty* groups re-aggregate (counted in
//!   [`IvmStats::dirty_groups`]), and within a dirty group `Count` is the
//!   member count and an all-`Int` `Sum` is a running total, so neither
//!   re-reads the group; `Min`/`Max`/`Avg` and sums with a non-`Int`
//!   contribution re-fold the members;
//! * **order-by / limit** — no delta rule: when their input changed they
//!   fall back to a *scoped recompute* (re-running just that operator
//!   over its incrementally-maintained input), counted in
//!   [`IvmStats::fallback_recomputes`]. A wholesale entry rebind
//!   ([`EntryDelta::Replaced`]) likewise falls back where state lives: a
//!   join rebuilds over a rebound right side, and a rebound scan is
//!   re-run, with the operators above it, by the nearest node that holds
//!   state — so correctness never depends on delta-rule coverage.
//!
//! The differential-oracle suite (`tests/tests/view_maintenance.rs`)
//! pins every rule against full recomputation; `docs/VIEWS.md` documents
//! the contract.

use crate::aggregate::AggSpec;
use crate::filter::{with_inlined_keys, KeyInliner, Lacks, PerShape};
use crate::optimizer::Optimizer;
use crate::physical::{Kept, Row};
use crate::plan::Query;
use crate::setops::key_map;
use crate::transform;
use fdm_core::delta::{diff_relations, DbDelta, EntryDelta, TupleChange};
use fdm_core::{
    DatabaseF, FdmError, FxHashMap, Name, RelationBuilder, RelationF, Result, Shape, TupleF, Value,
};
use fdm_expr::{Compiled, Expr};
use std::borrow::Cow;
use std::collections::btree_map::Entry;
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
    /// limit) re-running over their maintained input, plus one per node
    /// that rebuilt its state after a wholesale entry rebind.
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

/// One group: its members by input key — each kept as the row it arrived
/// as — and one [`IntSum`] per aggregate (in `aggs` order; only the `Sum`
/// slots are used).
#[derive(Clone)]
struct Group {
    members: BTreeMap<Value, Kept>,
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
    fn track(sums: &mut [IntSum], aggs: &[(String, AggSpec)], row: &Row<'_>, joined: bool) {
        for (sum, (_, spec)) in sums.iter_mut().zip(aggs) {
            let AggSpec::Sum(attr) = spec else { continue };
            match (row.get(attr).as_deref(), joined) {
                (Ok(Value::Int(i)), true) => sum.total = sum.total.wrapping_add(*i),
                (Ok(Value::Int(i)), false) => sum.total = sum.total.wrapping_sub(*i),
                (_, true) => sum.other += 1,
                (_, false) => sum.other -= 1,
            }
        }
    }

    /// Keeps `row` under its key, replacing (and retracting) a previous
    /// member.
    fn insert(&mut self, aggs: &[(String, AggSpec)], row: Row<'_>) {
        Group::track(&mut self.sums, aggs, &row, true);
        let key = row.key().clone();
        match self.members.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(row.keep());
            }
            Entry::Occupied(mut slot) => {
                let prev = slot.insert(row.keep());
                Group::track(&mut self.sums, aggs, &prev.row(slot.key()), false);
            }
        }
    }

    fn remove(&mut self, aggs: &[(String, AggSpec)], key: &Value) {
        if let Some(prev) = self.members.remove(key) {
            Group::track(&mut self.sums, aggs, &prev.row(key), false);
        }
    }

    /// The `i`-th aggregate over the current members — exactly
    /// [`AggSpec::eval`] over them in key order, read off the running
    /// state where that is provably the same value, else folded over the
    /// kept rows.
    fn agg_value(&self, i: usize, spec: &AggSpec) -> Result<Value> {
        match spec {
            AggSpec::Count => Ok(Value::Int(self.members.len() as i64)),
            AggSpec::Sum(_) if self.sums[i].other == 0 => Ok(Value::Int(self.sums[i].total)),
            _ => spec.fold(self.members.iter().map(|(key, m)| m.row(key))),
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
    /// join value → right-side keys holding it.
    right_idx: FxHashMap<Value, Vec<Value>>,
    /// join value → left-side keys holding it.
    left_idx: FxHashMap<Value, Vec<Value>>,
    /// left key → the output rows its probe produced.
    provenance: FxHashMap<Value, Vec<Arc<TupleF>>>,
    /// fingerprint hash → output rows (the canonical-id multiset).
    buckets: FxHashMap<u64, Vec<Arc<TupleF>>>,
}

/// One maintenance node: the state its operator's delta rule reads back
/// (the operator itself is read off the plan, which [`Node::apply`] walks
/// in step with the tree). Scan, filter and project read nothing back:
/// their `out` is `None` — *released* — unless [`Node::build`] keeps it;
/// what they keep is what they derived per input shape.
#[derive(Clone)]
enum Node {
    Scan {
        /// The scanned relation's key attributes and what each input shape
        /// lacks of them: reset when the entry is rebound.
        inliner: KeyInliner,
        out: Option<RelationF>,
    },
    Filter {
        input: Box<Node>,
        out: Option<RelationF>,
        compiled: PerShape<Compiled>,
    },
    Project {
        input: Box<Node>,
        out: Option<RelationF>,
        projected: PerShape<Result<(Arc<Shape>, Vec<usize>)>>,
    },
    Join {
        input: Box<Node>,
        state: Box<JoinState>,
        out: RelationF,
    },
    GroupAgg {
        input: Box<Node>,
        /// The name and the one shape every output row is built with.
        row: (Name, Arc<Shape>),
        state: GroupState,
        out: RelationF,
    },
    /// An order-by or a limit: no delta rule, maintained by scoped recompute.
    Fallback { input: Box<Node>, out: RelationF },
}

/// Folds a node's output changes into its materialized relation in place
/// through [`RelationF::stored_map_mut`]: a change with a new tuple sets
/// it, one without unsets its key. An output that is not a plain,
/// unconstrained stored body is turned into one first. Each edit copies
/// only the nodes a reader of an earlier output still holds, once per
/// batch, and edits the rest in place; every subtree no change falls into
/// stays shared. No change leaves the relation as it is.
fn apply_changes(out: &mut RelationF, changes: &[TupleChange]) -> Result<()> {
    if changes.is_empty() {
        return Ok(());
    }
    if out.stored_map_mut().is_none() {
        *out = out.with_stored_map(key_map(out)?);
    }
    let map = out.stored_map_mut().expect("a plain stored body");
    for c in changes {
        match &c.new {
            Some(t) => drop(map.set(c.key.clone(), Arc::clone(t))),
            None => drop(map.unset(&c.key)),
        }
    }
    Ok(())
}

/// One key's transition — `None` when it is no change at all: absent on
/// both sides, or the same data.
fn transition(
    key: &Value,
    old: Option<Arc<TupleF>>,
    new: Option<Arc<TupleF>>,
) -> Option<TupleChange> {
    match (&old, &new) {
        (None, None) => None,
        (Some(a), Some(b)) if a.same_data(b) => None,
        _ => Some(TupleChange {
            key: key.clone(),
            old,
            new,
        }),
    }
}

/// The delta rule of scan, filter and project: `row` — the operator on one
/// tuple, `None` when it drops the row — maps both sides of every change,
/// so `old` is what the operator emitted for that key before.
fn map_changes(
    input: &[TupleChange],
    mut row: impl FnMut(&Value, &Arc<TupleF>) -> Result<Option<Arc<TupleF>>>,
) -> Result<Vec<TupleChange>> {
    let mut changes = Vec::new();
    for c in input {
        let mut side = |t: &Option<Arc<TupleF>>| match t {
            Some(t) => row(&c.key, t),
            None => Ok(None),
        };
        changes.extend(transition(&c.key, side(&c.old)?, side(&c.new)?));
    }
    Ok(changes)
}

/// One change in flight between maintenance nodes, each side a
/// `physical::Row`: what the node emitted for the key before (`old`) and
/// emits now (`new`).
struct Change<'a> {
    old: Option<Row<'a>>,
    new: Option<Row<'a>>,
}

impl Change<'_> {
    /// A materialized change, as rows over its tuples.
    fn of(c: &TupleChange) -> Change<'_> {
        let row = |t| Row::tuple(Cow::Borrowed(&c.key), Cow::Borrowed(t));
        Change {
            old: c.old.as_ref().map(row),
            new: c.new.as_ref().map(row),
        }
    }

    /// The change as a kept output stores it: each side built into the
    /// tuple it stands for.
    fn into_tuple_change(self) -> TupleChange {
        let old = self.old.map(Row::into_entry);
        let new = self.new.map(Row::into_entry);
        let key = match (&old, &new) {
            (_, Some((key, _))) | (Some((key, _)), None) => key.clone(),
            (None, None) => unreachable!("a change has a side"),
        };
        TupleChange {
            key,
            old: old.map(|(_, t)| t),
            new: new.map(|(_, t)| t),
        }
    }
}

/// Where a node hands the changes it emits.
type Sink<'s> = dyn FnMut(Change<'_>) + 's;

/// Hands `old → new` on unless it is no change at all: absent on both
/// sides, or the same data.
fn pass(sink: &mut Sink<'_>, old: Option<Row<'_>>, new: Option<Row<'_>>) {
    match (&old, &new) {
        (None, None) => {}
        (Some(a), Some(b)) if a.same_data(b) => {}
        _ => sink(Change { old, new }),
    }
}

/// `step` on every change until it first fails; the failure is kept for
/// after the input has drained, so an error further upstream — which a
/// node materializing its input would have hit first — still wins (the
/// executor's rule, `physical::guarded`).
fn guarded<'s>(
    failed: &'s mut Option<FdmError>,
    mut step: impl FnMut(Change<'_>) -> Result<()> + 's,
) -> impl FnMut(Change<'_>) + 's {
    move |change| {
        if failed.is_none() {
            if let Err(e) = step(change) {
                *failed = Some(e);
            }
        }
    }
}

/// One side of a base change as the scan hands it on (see
/// [`KeyInliner::split`]).
type Split<'t> = (Cow<'t, Arc<TupleF>>, Option<Arc<Lacks>>);

fn split_row<'r>(key: &'r Value, (tuple, lacks): &'r Split<'_>) -> Row<'r> {
    Row::lazy(Cow::Borrowed(key), Cow::Borrowed(&**tuple), lacks.as_ref())
}

/// One side of a change through a filter: kept when the predicate —
/// compiled once per input shape — holds.
fn filtered<'r>(
    compiled: &mut PerShape<Compiled>,
    pred: &Expr,
    row: Option<Row<'r>>,
) -> Result<Option<Row<'r>>> {
    let Some(row) = row else { return Ok(None) };
    let shape = row.shape();
    let pred = compiled.get_or_derive(shape, || Compiled::new(pred, shape));
    Ok(pred.eval_predicate(&row)?.then_some(row))
}

/// One side of a change through a projection onto `attrs`, whose shape
/// and slots are derived once per input shape.
fn projected_row<'r>(
    projected: &mut PerShape<Result<(Arc<Shape>, Vec<usize>)>>,
    attrs: &[String],
    row: Option<Row<'r>>,
) -> Result<Option<Row<'r>>> {
    let Some(row) = row else { return Ok(None) };
    let shape = row.shape();
    let derived = projected.get_or_derive(shape, || {
        let keep: Vec<&str> = attrs.iter().map(String::as_str).collect();
        shape.project(&keep)
    });
    let (shape, slots) = derived.as_ref().map_err(Clone::clone)?;
    Ok(Some(row.project(shape, slots)?))
}

/// What a node emits for one delta: its output's row changes — or `None`,
/// when a wholesale rebind reached a released node, which has no output to
/// diff; a node that holds state never answers so.
type Emitted = Result<Option<Vec<TupleChange>>>;

/// A scan, filter or project emits `changes`: folded into its output where
/// it keeps one.
fn emit(out: &mut Option<RelationF>, changes: Vec<TupleChange>) -> Emitted {
    if let Some(out) = out {
        apply_changes(out, &changes)?;
    }
    Ok(Some(changes))
}

/// A scoped recompute: `fresh` takes `out`'s place and the node emits
/// what the two differ by.
fn replace(out: &mut RelationF, fresh: RelationF, stats: &mut IvmStats) -> Emitted {
    let changes = diff_relations(out, &fresh)?;
    *out = fresh;
    stats.fallback_recomputes += 1;
    Ok(Some(changes))
}

/// A wholesale rebind reached a scan, filter or project: one that keeps
/// its output re-runs its sub-plan through the executor, a released one
/// answers `None` and so hands the rebind to the nearest state above it.
fn rerun(
    out: &mut Option<RelationF>,
    plan: &Query,
    db: &DatabaseF,
    stats: &mut IvmStats,
) -> Emitted {
    match out {
        Some(out) => replace(out, plan.eval(db)?, stats),
        None => Ok(None),
    }
}

/// An order-by or limit `plan` over its input's current output.
fn reorder(plan: &Query, input: &RelationF) -> Result<RelationF> {
    match plan {
        Query::OrderBy { attr, order, .. } => transform::order_by(input, attr, *order),
        Query::Limit { k, .. } => transform::limit(input, *k),
        _ => unreachable!("a fallback node mirrors an order-by or a limit"),
    }
}

/// The batch group-key rule: the single by-value, or a `Value::List` of
/// them for composite groupings.
fn group_key(row: &Row<'_>, by: &[String]) -> Result<Value> {
    if let [attr] = by {
        return Ok(row.get(attr)?.into_owned());
    }
    let parts = by.iter().map(|attr| row.get(attr).map(Cow::into_owned));
    Ok(Value::list(parts.collect::<Result<Vec<_>>>()?))
}

/// Re-aggregates one group into the batch operator's output row (the
/// by-attributes, then the aggregates, folded in member order), built
/// over the node's one shared shape.
fn agg_tuple_for(
    key: &Value,
    by: &[String],
    aggs: &[(String, AggSpec)],
    (name, shape): &(Name, Arc<Shape>),
    group: &Group,
) -> Result<TupleF> {
    let mut values = Vec::with_capacity(shape.len());
    match key {
        Value::List(parts) if by.len() > 1 => values.extend(parts.iter().cloned()),
        v => values.push(v.clone()),
    }
    for (i, (_, spec)) in aggs.iter().enumerate() {
        values.push(group.agg_value(i, spec)?);
    }
    Ok(TupleF::from_shape(name.clone(), shape.clone(), values))
}

/// Groups `input` and aggregates every group: a group/aggregate node's
/// state and output, at registration and after a rebind below it.
fn build_groups(
    input: &RelationF,
    by: &[String],
    aggs: &[(String, AggSpec)],
    row: &(Name, Arc<Shape>),
) -> Result<(GroupState, RelationF)> {
    let mut state = GroupState::new();
    for (key, tuple) in input.tuples()? {
        let row = Row::tuple(Cow::Borrowed(&key), Cow::Borrowed(&tuple));
        state
            .entry(group_key(&row, by)?)
            .or_insert_with(|| Group::new(aggs))
            .insert(aggs, row);
    }
    let by_refs: Vec<&str> = by.iter().map(String::as_str).collect();
    let mut out = RelationBuilder::new("aggregates", &by_refs).with_capacity(state.len());
    for (gk, group) in &state {
        out.push(gk.clone(), agg_tuple_for(gk, by, aggs, row, group)?);
    }
    Ok((state, out.build()?))
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
    /// This node's output, where it keeps one.
    fn out(&self) -> Option<&RelationF> {
        match self {
            Node::Scan { out, .. } | Node::Filter { out, .. } | Node::Project { out, .. } => {
                out.as_ref()
            }
            Node::Join { out, .. } | Node::GroupAgg { out, .. } | Node::Fallback { out, .. } => {
                Some(out)
            }
        }
    }

    /// Where a scan, filter or project keeps its output, if it does.
    fn out_slot(&mut self) -> &mut Option<RelationF> {
        match self {
            Node::Scan { out, .. } | Node::Filter { out, .. } | Node::Project { out, .. } => out,
            _ => unreachable!("a join, group or fallback always keeps its output"),
        }
    }

    /// The output of a node [`Node::build`] was told to keep.
    fn kept(&self) -> &RelationF {
        self.out()
            .expect("the root and the input of a join, order-by or limit keep their output")
    }

    /// Builds the maintenance tree for `plan`. `keep`: does somebody read
    /// this node's output — the view's reader at the root, or a parent that
    /// re-reads its input? A scan, filter or project kept for them starts
    /// from its sub-plan run through the executor; others build nothing.
    fn build(plan: &Query, db: &DatabaseF, keep: bool) -> Result<Node> {
        let first_out = || keep.then(|| plan.eval(db)).transpose();
        Ok(match plan {
            Query::Scan { rel } => Node::Scan {
                inliner: KeyInliner::new(db.relation(rel)?.key_attrs()),
                out: first_out()?,
            },
            Query::Filter { input, .. } => Node::Filter {
                input: Box::new(Node::build(input, db, false)?),
                out: first_out()?,
                compiled: PerShape::new(),
            },
            Query::Project { input, .. } => Node::Project {
                input: Box::new(Node::build(input, db, false)?),
                out: first_out()?,
                projected: PerShape::new(),
            },
            Query::Join {
                input,
                rel,
                input_attr,
                rel_attr,
            } => {
                let input = Box::new(Node::build(input, db, true)?);
                let right = with_inlined_keys(db.relation(rel)?.as_ref())?;
                let (state, out) =
                    build_join_state(input.kept(), right, input_attr, rel_attr, rel)?;
                let state = Box::new(state);
                Node::Join { input, state, out }
            }
            Query::GroupAgg {
                input: sub,
                by,
                aggs,
            } => {
                if by.is_empty() {
                    return Err(FdmError::Other("group: 'by' names no attribute".into()));
                }
                let input = Box::new(Node::build(sub, db, false)?);
                let names = by.iter().chain(aggs.iter().map(|(name, _)| name));
                let shape = Shape::new(names.map(|n| Name::from(n.as_str())));
                let row = (Name::from("agg"), shape);
                let members = match input.out() {
                    Some(out) => out.clone(),
                    None => sub.eval(db)?,
                };
                let (state, out) = build_groups(&members, by, aggs, &row)?;
                Node::GroupAgg {
                    input,
                    row,
                    state,
                    out,
                }
            }
            Query::OrderBy { input, .. } | Query::Limit { input, .. } => {
                let input = Box::new(Node::build(input, db, true)?);
                let out = reorder(plan, input.kept())?;
                Node::Fallback { input, out }
            }
            Query::Invalid { message } => return Err(FdmError::Expr(message.clone())),
        })
    }

    /// Streams this node's output changes for one delta to `sink` — `plan`
    /// is its sub-plan. `Ok(false)`: a wholesale rebind reached a released
    /// scan, filter or project, which has no output to diff; the nearest
    /// node holding state above re-runs instead.
    fn stream(
        &mut self,
        plan: &Query,
        db: &DatabaseF,
        delta: &DbDelta,
        stats: &mut IvmStats,
        sink: &mut Sink<'_>,
    ) -> Result<bool> {
        if self.out().is_none() {
            // a released scan, filter or project: its changes pass through
            return self.transform(plan, db, delta, stats, sink);
        }
        let changes = self
            .apply(plan, db, delta, stats)?
            .expect("a node that keeps its output answers with its changes");
        for c in &changes {
            sink(Change::of(c));
        }
        Ok(true)
    }

    /// The delta rule of scan, filter and project: the operator on both
    /// sides of every change its input emits, streamed to `sink` (see
    /// [`Self::stream`] for `Ok(false)`).
    fn transform(
        &mut self,
        plan: &Query,
        db: &DatabaseF,
        delta: &DbDelta,
        stats: &mut IvmStats,
        sink: &mut Sink<'_>,
    ) -> Result<bool> {
        let mut failed = None;
        let streamed = match (self, plan) {
            (Node::Scan { inliner, .. }, Query::Scan { rel }) => match delta.entry(rel) {
                None => true,
                Some(EntryDelta::Rows(base_changes)) => {
                    for c in base_changes {
                        let old = c.old.as_ref().map(|t| inliner.split(&c.key, t));
                        let new = c.new.as_ref().map(|t| inliner.split(&c.key, t));
                        let row = |side| split_row(&c.key, side);
                        pass(sink, old.as_ref().map(row), new.as_ref().map(row));
                    }
                    true
                }
                Some(EntryDelta::Replaced) => {
                    *inliner = KeyInliner::new(db.relation(rel)?.key_attrs());
                    false
                }
            },
            (
                Node::Filter {
                    input, compiled, ..
                },
                Query::Filter { input: sub, pred },
            ) => {
                let step = |c: Change<'_>| {
                    let old = filtered(compiled, pred, c.old)?;
                    pass(sink, old, filtered(compiled, pred, c.new)?);
                    Ok(())
                };
                input.stream(sub, db, delta, stats, &mut guarded(&mut failed, step))?
            }
            (
                Node::Project {
                    input, projected, ..
                },
                Query::Project { input: sub, attrs },
            ) => {
                let step = |c: Change<'_>| {
                    let old = projected_row(projected, attrs, c.old)?;
                    pass(sink, old, projected_row(projected, attrs, c.new)?);
                    Ok(())
                };
                input.stream(sub, db, delta, stats, &mut guarded(&mut failed, step))?
            }
            _ => unreachable!("only a scan, filter or project transforms changes"),
        };
        failed.map_or(Ok(streamed), Err)
    }

    /// Propagates a base delta through this node — `plan` is its sub-plan
    /// — updating its state and returning its output's own row changes.
    fn apply(
        &mut self,
        plan: &Query,
        db: &DatabaseF,
        delta: &DbDelta,
        stats: &mut IvmStats,
    ) -> Emitted {
        match (self, plan) {
            (node @ (Node::Scan { .. } | Node::Filter { .. } | Node::Project { .. }), _) => {
                let mut changes = Vec::new();
                let push = &mut |c: Change<'_>| changes.push(c.into_tuple_change());
                match node.transform(plan, db, delta, stats, push)? {
                    true => emit(node.out_slot(), changes),
                    false => rerun(node.out_slot(), plan, db, stats),
                }
            }
            (
                Node::Join { input, state, out },
                Query::Join {
                    input: sub,
                    rel,
                    input_attr,
                    rel_attr,
                },
            ) => {
                let child_changes = input
                    .apply(sub, db, delta, stats)?
                    .expect("a kept input turns a rebind into row changes");
                if matches!(delta.entry(rel), Some(EntryDelta::Replaced)) {
                    // wholesale right-side rebind: scoped rebuild of this
                    // operator from its (already maintained) input
                    let right = with_inlined_keys(db.relation(rel)?.as_ref())?;
                    let (new_state, new_out) =
                        build_join_state(input.kept(), right, input_attr, rel_attr, rel)?;
                    **state = new_state;
                    return replace(out, new_out, stats);
                }
                let mut dirty_left: BTreeSet<Value> = BTreeSet::new();
                // 1. right-side base changes: refresh the cached right
                // relation + hash bindings, dirtying every left key bound
                // to an affected join value
                if let Some(EntryDelta::Rows(base_changes)) = delta.entry(rel) {
                    let mut inliner = KeyInliner::new(state.right.key_attrs());
                    let inline = |key: &Value, t: &Arc<TupleF>| Ok(Some(inliner.inline(key, t)));
                    let right_changes = map_changes(base_changes, inline)?;
                    for c in &right_changes {
                        for (side, binds) in [(&c.old, false), (&c.new, true)] {
                            let Some(t) = side else { continue };
                            let jv = t.get(rel_attr)?;
                            if let Some(lks) = state.left_idx.get(&jv) {
                                dirty_left.extend(lks.iter().cloned());
                            }
                            if binds {
                                state.right_idx.entry(jv).or_default().push(c.key.clone());
                            } else {
                                unbind(&mut state.right_idx, &jv, &c.key);
                            }
                        }
                    }
                    apply_changes(&mut state.right, &right_changes)?;
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
                    if let Some(lt) = input.kept().lookup(lk) {
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
                    for rank in 0.. {
                        let key = row_key(h, rank);
                        let (old, new) = (out.lookup(&key), new_ranked.get(rank).cloned());
                        if old.is_none() && new.is_none() {
                            break;
                        }
                        changes.extend(transition(&key, old, new));
                    }
                }
                apply_changes(out, &changes)?;
                Ok(Some(changes))
            }
            (
                Node::GroupAgg {
                    input,
                    row,
                    state,
                    out,
                },
                Query::GroupAgg {
                    input: sub,
                    by,
                    aggs,
                },
            ) => {
                let mut dirty: BTreeSet<Value> = BTreeSet::new();
                let mut failed = None;
                let step = |c: Change<'_>| {
                    if let Some(old) = &c.old {
                        let gk = group_key(old, by)?;
                        if let Some(group) = state.get_mut(&gk) {
                            group.remove(aggs, old.key());
                            if group.members.is_empty() {
                                state.remove(&gk);
                            }
                        }
                        dirty.insert(gk);
                    }
                    if let Some(new) = c.new {
                        let gk = group_key(&new, by)?;
                        state
                            .entry(gk.clone())
                            .or_insert_with(|| Group::new(aggs))
                            .insert(aggs, new);
                        dirty.insert(gk);
                    }
                    Ok(())
                };
                let streamed =
                    input.stream(sub, db, delta, stats, &mut guarded(&mut failed, step))?;
                if !streamed {
                    // a rebind came up a released chain: regroup its output
                    let (new_state, new_out) = build_groups(&sub.eval(db)?, by, aggs, row)?;
                    *state = new_state;
                    return replace(out, new_out, stats);
                }
                if let Some(e) = failed {
                    return Err(e);
                }
                stats.dirty_groups += dirty.len() as u64;
                let mut changes = Vec::new();
                for gk in dirty {
                    let new = match state.get(&gk) {
                        Some(group) => Some(Arc::new(agg_tuple_for(&gk, by, aggs, row, group)?)),
                        None => None, // the group emptied out
                    };
                    changes.extend(transition(&gk, out.lookup(&gk), new));
                }
                apply_changes(out, &changes)?;
                Ok(Some(changes))
            }
            (
                Node::Fallback { input, out },
                Query::OrderBy { input: sub, .. } | Query::Limit { input: sub, .. },
            ) => {
                let child_changes = input
                    .apply(sub, db, delta, stats)?
                    .expect("a kept input turns a rebind into row changes");
                if child_changes.is_empty() {
                    return Ok(Some(child_changes));
                }
                replace(out, reorder(plan, input.kept())?, stats)
            }
            _ => unreachable!("node and plan trees are built in step"),
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
        plan.check_depth()?;
        let root = Node::build(&plan, db, true)?;
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
        let changes = self
            .root
            .apply(&self.plan, db, delta, &mut self.stats)?
            .expect("the root keeps its output");
        self.stats.deltas_applied += 1;
        self.stats.rows_changed += changes.len() as u64;
        Ok(changes.len())
    }

    /// Re-materializes the plan against `db`, for a view whose missed
    /// deltas are no longer to be had: the view then stands for `db`.
    /// Keeps its counters and counts one fallback recompute.
    pub fn rebuild(&mut self, db: &DatabaseF) -> Result<()> {
        self.root = Self::with_plan(&self.name, self.plan.clone(), db)?.root;
        self.stats.fallback_recomputes += 1;
        Ok(())
    }

    /// The maintained result, renamed to the view's name.
    pub fn relation(&self) -> RelationF {
        self.root.kept().renamed(&self.name)
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

    /// Every relation the view keeps materialized — the outputs its
    /// operators keep, root first, and after a join's output its cached
    /// right side (test support for the structure-sharing pins).
    #[doc(hidden)]
    pub fn maintained_relations(&self) -> Vec<RelationF> {
        let mut out = Vec::new();
        let mut node = Some(&self.root);
        while let Some(n) = node {
            out.extend(n.out().cloned());
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
    use crate::transform::Order;
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
                        Row::tuple(
                            Cow::Owned(Value::Int(key)),
                            Cow::Owned(Arc::new(TupleF::builder("m").attr("x", x).build())),
                        ),
                    ),
                    None => group.remove(&aggs, &Value::Int(key)),
                }
                let members: Vec<Arc<TupleF>> = (group.members.iter())
                    .map(|(key, m)| m.row(key).into_entry().1)
                    .collect();
                for (i, (_, spec)) in aggs.iter().enumerate() {
                    let got = group.agg_value(i, spec);
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

    /// The scan's key-inlining memo lives as long as the view: tuples a
    /// commit builds on its own (a fresh shape each time) reuse the one
    /// inlined shape, so the filter above meets a pointer-stable input
    /// shape and every per-shape memo holds one entry.
    #[test]
    fn stateless_nodes_derive_once_per_input_shape_across_commits() {
        let db = retail_db();
        let q = Query::scan("customers")
            .filter("age > $min", Params::new().set("min", 20))
            .project(&["name", "age"]);
        let mut v = MaintainedView::new("names", q, &db).unwrap();
        let mut before = db;
        let mut shapes = Vec::new();
        let mut written = Vec::new();
        for (cid, age) in [(7, 61), (8, 62)] {
            // each commit's tuple is built on its own: a fresh shape each time
            let t = TupleF::builder("c")
                .attr("name", "N")
                .attr("age", age)
                .build();
            written.push(Arc::new(t.clone()));
            let after = crate::update::db_upsert(&before, "customers", Value::Int(cid), t).unwrap();
            step(&mut v, &before, &after);
            let row = v.relation().lookup(&Value::Int(cid)).unwrap();
            shapes.push(row.shape().clone());
            before = after;
        }
        assert!(!Arc::ptr_eq(written[0].shape(), written[1].shape()));
        let [first, second] = [&written[0], &written[1]];
        assert!(Arc::ptr_eq(&shapes[0], &shapes[1]), "one output shape");
        // derived once per distinct input shape, not once per change
        let Node::Project {
            input, projected, ..
        } = &v.root
        else {
            panic!("a projection at the root: {}", v.plan().explain())
        };
        let Node::Filter {
            input, compiled, ..
        } = &**input
        else {
            panic!("a filter below it: {}", v.plan().explain())
        };
        let Node::Scan { inliner, .. } = &**input else {
            panic!("a scan below that: {}", v.plan().explain())
        };
        let counts = (inliner.shapes().len(), compiled.shapes().len());
        assert_eq!((projected.shapes().len(), counts), (1, (1, 1)));
        // the filter's one input shape is the inlined shape the scan
        // derived, and every commit's row arrived in it
        let mut inliner = inliner.clone();
        for (cid, t) in [(7, first), (8, second)] {
            let inlined = inliner.lacks(&Value::Int(cid), t.shape()).unwrap();
            assert!(Arc::ptr_eq(&inlined.shape, compiled.shapes()[0]));
        }
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
