//! The physical layer under [`Query`]: what `Query::eval` lowers an
//! optimized plan onto, and what the eager costumes (`filter_*`,
//! `group_and_aggregate`, `aggregate_all`, `grouping_sets`) run as
//! one-operator plans — one implementation per operator.
//!
//! Operators exchange **rows**, not relations. A [`Row`] is a key plus
//! the values of one tuple — the stored tuple itself, borrowed from the
//! relation's map, wherever no operator changed it. `Scan`, `Filter`,
//! `Project`, `Limit` and the probe side of `Join` stream: each hands its
//! rows to its parent's sink as it produces them, in key order, and keeps
//! nothing. Only the pipeline breakers build anything: `GroupAgg` (a hash
//! fold, [`GroupFold`]), `OrderBy`, the hash-build side of a join, a join
//! whose canonical row ids somebody observes, and the plan root — the one
//! relation a plan builds, through the bulk builder.
//!
//! * A scan of a database entry inlines the key **lazily**: a row carries
//!   the key parts its tuple lacks ([`Lacks`]) and an operator reads them
//!   off the key; only rows that reach the root get them appended. Tuples
//!   with computed attributes (which may read the key) are inlined first.
//! * A filter compiles its predicate once per input shape
//!   ([`fdm_expr::Compiled`]) and evaluates borrowed values by slot.
//! * A projection derives its shape and slots once per input shape and
//!   moves only the kept values.
//! * A join on the right relation's only key, which no stored tuple also
//!   carries, is **function application**: each probe looks the key up in
//!   the right relation's map ([`on_key`]); any other join hash-builds the
//!   right side as before.
//!
//! Errors surface as the materializing executor raised them: operator by
//! operator, innermost first, each at its first failing row. A streaming
//! operator that fails keeps its error and lets its input drain, so an
//! error further upstream — which the eager executor would have hit
//! first — still wins (`tests/tests/physical_plan.rs` pins plans against a
//! materializing reference).

use crate::aggregate::GroupFold;
use crate::filter::{get_inlined, with_inlined_keys, KeyInliner, Lacks};
use crate::join::{frozen, RowJoiner};
use crate::plan::{canonical_keyed, Query};
use crate::transform::{ranked, Order};
use fdm_core::{
    DatabaseF, FdmError, FxHashMap, Name, RelationBuilder, RelationF, Result, Shape, ShapeMemo,
    TupleF, Value,
};
use fdm_expr::{Compiled, Expr, Slots};
use fdm_storage::PMap;
use std::borrow::Cow;
use std::sync::Arc;

/// A row in flight between two operators: its key and its values.
pub(crate) struct Row<'a> {
    key: Cow<'a, Value>,
    body: Body<'a>,
}

enum Body<'a> {
    /// A tuple as stored (or as a breaker built it), followed — when a
    /// scan inlines the key lazily — by the key parts it lacks.
    Tuple(Cow<'a, Arc<TupleF>>, Option<&'a Arc<Lacks>>),
    /// Values over a shape an operator derived: a projection's, a join's.
    Values {
        name: Name,
        shape: Arc<Shape>,
        values: Vec<Value>,
    },
}

impl<'a> Row<'a> {
    pub(crate) fn tuple(key: Cow<'a, Value>, tuple: Cow<'a, Arc<TupleF>>) -> Row<'a> {
        Row::lazy(key, tuple, None)
    }

    /// `tuple` under `key`, followed by the key parts it `lacks` — what a
    /// scan that inlines the key lazily hands on.
    pub(crate) fn lazy(
        key: Cow<'a, Value>,
        tuple: Cow<'a, Arc<TupleF>>,
        lacks: Option<&'a Arc<Lacks>>,
    ) -> Row<'a> {
        Row {
            key,
            body: Body::Tuple(tuple, lacks),
        }
    }

    /// The key the row is stored under.
    pub(crate) fn key(&self) -> &Value {
        &self.key
    }

    /// The row's shape: the names its values go by.
    pub(crate) fn shape(&self) -> &Arc<Shape> {
        match &self.body {
            Body::Tuple(t, None) => t.shape(),
            Body::Tuple(_, Some(lacks)) => &lacks.shape,
            Body::Values { shape, .. } => shape,
        }
    }

    /// `t(attr)` of the tuple this row stands for.
    pub(crate) fn get(&self, attr: &str) -> Result<Cow<'_, Value>> {
        match self.shape().position(attr) {
            Some(slot) => self.slot(slot),
            None => Err(no_such_attribute(attr)),
        }
    }

    /// The tuple this row is, when it is one as it stands.
    fn as_tuple(&self) -> Option<&TupleF> {
        match &self.body {
            Body::Tuple(t, None) => Some(t),
            _ => None,
        }
    }

    fn name(&self) -> &Name {
        match &self.body {
            Body::Tuple(t, _) => t.shared_name(),
            Body::Values { name, .. } => name,
        }
    }

    /// `true` if reading a value may run a computed attribute.
    fn computes(&self) -> bool {
        matches!(&self.body, Body::Tuple(t, _) if t.has_computed_attrs())
    }

    /// Appends every value in slot order, computed ones evaluated.
    fn extend_values(&self, out: &mut Vec<Value>) -> Result<()> {
        match &self.body {
            Body::Tuple(t, lacks) => {
                t.values_into(out)?;
                if let Some(lacks) = lacks {
                    out.extend(lacks.values(&self.key).cloned());
                }
            }
            Body::Values { values, .. } => out.extend_from_slice(values),
        }
        Ok(())
    }

    /// The row keeping `slots`, over `shape` — its values moved, or, for a
    /// tuple that computes, the definitions selected (computed attributes
    /// stay computed, as `TupleF::project` keeps them).
    pub(crate) fn project(self, shape: &Arc<Shape>, slots: &[usize]) -> Result<Row<'a>> {
        let body = match &self.body {
            Body::Tuple(t, None) if t.has_computed_attrs() => {
                Body::Tuple(Cow::Owned(Arc::new(t.select(shape.clone(), slots))), None)
            }
            _ => Body::Values {
                name: self.name().clone(),
                shape: shape.clone(),
                values: slots
                    .iter()
                    .map(|&slot| self.slot(slot).map(Cow::into_owned))
                    .collect::<Result<_>>()?,
            },
        };
        Ok(Row {
            key: self.key,
            body,
        })
    }

    /// The entry a relation stores for this row: the stored tuple shared
    /// where nothing changed it, else built now.
    pub(crate) fn into_entry(self) -> (Value, Arc<TupleF>) {
        let tuple = match self.body {
            Body::Tuple(t, None) => t.into_owned(),
            Body::Tuple(t, Some(lacks)) => {
                let parts = lacks.values(&self.key).cloned();
                Arc::new(t.appended(lacks.shape.clone(), parts))
            }
            Body::Values {
                name,
                shape,
                values,
            } => Arc::new(TupleF::from_shape(name, shape, values)),
        };
        (self.key.into_owned(), tuple)
    }

    /// The tuple this row stands for, built where it is not one as it
    /// stands — [`Self::into_entry`] without giving the row up.
    fn to_tuple(&self) -> Arc<TupleF> {
        match &self.body {
            Body::Tuple(t, None) => Arc::clone(t),
            Body::Tuple(t, Some(lacks)) => {
                let parts = lacks.values(&self.key).cloned();
                Arc::new(t.appended(lacks.shape.clone(), parts))
            }
            Body::Values {
                name,
                shape,
                values,
            } => Arc::new(TupleF::from_shape(
                name.clone(),
                shape.clone(),
                values.clone(),
            )),
        }
    }

    /// The row as a node keeps it between deltas: a stored tuple stays
    /// as it is, with the key parts it lacks still read off the key.
    pub(crate) fn keep(self) -> Kept {
        match self.body {
            Body::Tuple(t, lacks) => Kept {
                tuple: t.into_owned(),
                lacks: lacks.cloned(),
            },
            Body::Values { .. } => Kept {
                tuple: self.into_entry().1,
                lacks: None,
            },
        }
    }

    /// `true` when the two rows stand for the same data
    /// ([`TupleF::same_data`] of the tuples they stand for), read in place
    /// where the rows share a shape that computes nothing: slot by slot, up
    /// to the first difference.
    pub(crate) fn same_data(&self, other: &Row<'_>) -> bool {
        let shape = self.shape();
        if Arc::ptr_eq(shape, other.shape()) && !shape.has_computed() {
            return (0..shape.len()).all(|slot| match (self.slot(slot), other.slot(slot)) {
                (Ok(a), Ok(b)) => a == b,
                _ => false,
            });
        }
        self.to_tuple().same_data(&other.to_tuple())
    }
}

/// A row as a maintained view keeps it between deltas ([`Row::keep`]): a
/// tuple, and the key parts it lacks, which [`Self::row`] reads off the
/// key it is kept under.
#[derive(Clone)]
pub(crate) struct Kept {
    tuple: Arc<TupleF>,
    lacks: Option<Arc<Lacks>>,
}

impl Kept {
    /// The row this is, under `key`.
    pub(crate) fn row<'a>(&'a self, key: &'a Value) -> Row<'a> {
        Row::lazy(
            Cow::Borrowed(key),
            Cow::Borrowed(&self.tuple),
            self.lacks.as_ref(),
        )
    }
}

impl Slots for Row<'_> {
    #[inline(always)]
    fn slot(&self, slot: usize) -> Result<Cow<'_, Value>> {
        match &self.body {
            Body::Tuple(t, lacks) => match (slot.checked_sub(t.attr_count()), lacks) {
                (Some(part), Some(lacks)) => Ok(Cow::Borrowed(lacks.part(&self.key, part))),
                _ => t.at(slot),
            },
            Body::Values { values, .. } => Ok(Cow::Borrowed(&values[slot])),
        }
    }
}

pub(crate) fn no_such_attribute(attr: &str) -> FdmError {
    FdmError::NoSuchAttribute {
        attr: attr.to_string(),
    }
}

/// A filter's predicate: a bound expression, compiled once per input
/// shape, or a host closure called on the borrowed tuple (the closure
/// costumes).
pub(crate) enum Pred<'q> {
    Expr(&'q Expr),
    Fn(&'q dyn Fn(&TupleF) -> Result<bool>),
}

/// A physical operator; see the module docs for which ones stream.
pub(crate) enum Op<'q> {
    /// `rel`'s rows in key order: a plain stored body read in place, any
    /// other enumerated through `tuples()` — a database entry's (`inline`)
    /// through its key-inlined copy, as the eager executor did.
    Scan {
        rel: &'q RelationF,
        inline: bool,
    },
    Filter {
        input: Box<Op<'q>>,
        pred: Pred<'q>,
    },
    Project {
        input: Box<Op<'q>>,
        attrs: &'q [String],
    },
    /// Streams its input (the probe side) against `right`, whose
    /// resolution error waits for the input to drain. `keyed`: somebody
    /// observes the output keys, so rows get canonical ids.
    Join {
        input: Box<Op<'q>>,
        right: Result<&'q RelationF>,
        rel: &'q str,
        input_attr: &'q str,
        rel_attr: &'q str,
        keyed: bool,
    },
    GroupAgg {
        input: Box<Op<'q>>,
        fold: GroupFold,
    },
    OrderBy {
        input: Box<Op<'q>>,
        attr: &'q str,
        order: Order,
    },
    Limit {
        input: Box<Op<'q>>,
        k: usize,
    },
}

impl<'q> Op<'q> {
    /// Lowers a logical plan. `keyed`: are this operator's output keys
    /// observable — at the plan root, or by a parent that reads them
    /// (`Limit`, `OrderBy`, `GroupAgg`)? `Filter` and `Project` pass their
    /// own answer down; a `Join` reads only its input's rows, so a join
    /// below it skips the canonical row ids. A scan's relation resolves
    /// now (a plan's one leaf is what runs first); a join's right side
    /// resolves now but reports after its input has run.
    pub(crate) fn lower(q: &'q Query, db: &'q DatabaseF, keyed: bool) -> Result<Op<'q>> {
        let lower = |input: &'q Query, keyed| Op::lower(input, db, keyed).map(Box::new);
        Ok(match q {
            Query::Scan { rel } => Op::Scan {
                rel: db.relation_ref(rel)?,
                inline: true,
            },
            Query::Filter { input, pred } => Op::Filter {
                input: lower(input, keyed)?,
                pred: Pred::Expr(pred),
            },
            Query::Project { input, attrs } => Op::Project {
                input: lower(input, keyed)?,
                attrs,
            },
            Query::Join {
                input,
                rel,
                input_attr,
                rel_attr,
            } => Op::Join {
                input: lower(input, false)?,
                right: db.relation_ref(rel).map(|r| &**r),
                rel,
                input_attr,
                rel_attr,
                keyed,
            },
            Query::GroupAgg { input, by, aggs } => Op::GroupAgg {
                input: lower(input, true)?,
                fold: GroupFold::new(by, aggs),
            },
            Query::OrderBy { input, attr, order } => Op::OrderBy {
                input: lower(input, true)?,
                attr,
                order: *order,
            },
            Query::Limit { input, k } => Op::Limit {
                input: lower(input, true)?,
                k: *k,
            },
            Query::Invalid { message } => return Err(FdmError::Expr(message.clone())),
        })
    }

    fn name(&self) -> Cow<'q, str> {
        match self {
            Op::Scan { rel, .. } => Cow::Borrowed(rel.name()),
            Op::Join { .. } => Cow::Borrowed("join"),
            Op::GroupAgg { .. } => Cow::Borrowed("aggregates"),
            Op::OrderBy { input, attr, .. } => Cow::Owned(format!("{}_by_{attr}", input.name())),
            Op::Filter { input, .. } | Op::Project { input, .. } | Op::Limit { input, .. } => {
                input.name()
            }
        }
    }

    /// An empty builder named and keyed like this operator's output.
    fn builder(&self) -> RelationBuilder {
        match self {
            Op::Scan { rel, .. } => rel.builder_like(),
            Op::Join { .. } => RelationBuilder::new("join", &["row"]),
            Op::GroupAgg { fold, .. } => RelationBuilder::new("aggregates", &fold.by()),
            Op::OrderBy { .. } => RelationBuilder::new(self.name(), &["rank"]),
            Op::Filter { input, .. } | Op::Project { input, .. } | Op::Limit { input, .. } => {
                input.builder()
            }
        }
    }

    /// Runs the plan and builds its output: the plan root, the one place a
    /// streamed row becomes a relation entry. `counts` receives every
    /// operator's output row count, innermost first.
    pub(crate) fn collect(self, counts: &mut Vec<usize>) -> Result<RelationF> {
        let mut out = self.builder();
        self.stream(counts, &mut |row| {
            let (key, tuple) = row.into_entry();
            out.push_arc(key, tuple);
        })?;
        out.build()
    }

    /// Hands this operator's output rows, in key order, to `sink`, then
    /// pushes their count onto `counts` (after its input's).
    pub(crate) fn stream(
        self,
        counts: &mut Vec<usize>,
        sink: &mut dyn FnMut(Row<'_>),
    ) -> Result<()> {
        let mut n = 0usize;
        let mut failed: Option<FdmError> = None;
        match self {
            Op::Scan { rel, inline } => n = scan(rel, inline, sink)?,
            Op::Filter { input, pred } => {
                let mut compiled: ShapeMemo<Compiled> = ShapeMemo::new();
                input.stream(
                    counts,
                    &mut guarded(&mut failed, |mut row| {
                        let keep = match pred {
                            Pred::Expr(expr) => {
                                let shape = row.shape();
                                compiled
                                    .get_or_derive([shape], || Compiled::new(expr, shape))
                                    .eval_predicate(&row)?
                            }
                            Pred::Fn(f) => match row.as_tuple() {
                                Some(t) => f(t)?,
                                None => {
                                    let (key, t) = row.into_entry();
                                    let keep = f(&t)?;
                                    row = Row::tuple(Cow::Owned(key), Cow::Owned(t));
                                    keep
                                }
                            },
                        };
                        if keep {
                            n += 1;
                            sink(row);
                        }
                        Ok(())
                    }),
                )?;
            }
            Op::Project { input, attrs } => {
                let keep: Vec<&str> = attrs.iter().map(String::as_str).collect();
                let mut projected: ShapeMemo<Result<(Arc<Shape>, Vec<usize>)>> = ShapeMemo::new();
                input.stream(
                    counts,
                    &mut guarded(&mut failed, |row| {
                        let shape = row.shape();
                        let derived = projected.get_or_derive([shape], || shape.project(&keep));
                        let (shape, slots) = derived.as_ref().map_err(Clone::clone)?;
                        n += 1;
                        sink(row.project(shape, slots)?);
                        Ok(())
                    }),
                )?;
            }
            Op::Join {
                input,
                right,
                rel,
                input_attr,
                rel_attr,
                keyed,
            } => {
                let right = right.and_then(|right| Ok((right, Build::new(right, rel_attr)?)));
                let (right, build) = match right {
                    Ok(built) => built,
                    Err(e) => {
                        input.stream(counts, &mut |_| {})?;
                        return Err(e);
                    }
                };
                let mut inliner = KeyInliner::new(right.key_attrs());
                let mut joiner = RowJoiner::new(rel);
                let mut on_slot: ShapeMemo<Option<usize>> = ShapeMemo::new();
                let mut left_values: Vec<Value> = Vec::new();
                let mut frozen_rows = match &build {
                    Build::Hash { rows, .. } => vec![None; rows.len()],
                    Build::Lookup(_) => Vec::new(),
                };
                let mut kept: Vec<Arc<TupleF>> = Vec::new();
                input.stream(
                    counts,
                    &mut guarded(&mut failed, |row| {
                        let shape = row.shape();
                        let on =
                            match *on_slot.get_or_derive([shape], || shape.position(input_attr)) {
                                Some(slot) => row.slot(slot)?,
                                None => return Err(no_such_attribute(input_attr)),
                            };
                        // a computing left row fails (if at all) before any
                        // match is read, as `values_into` did per left row
                        let computes = row.computes();
                        if computes {
                            left_values.clear();
                            row.extend_values(&mut left_values)?;
                        }
                        let mut emit = |key: &Value, rt: &Arc<TupleF>, at: Option<usize>| {
                            let cache = at.map(|at| &mut frozen_rows[at]);
                            let (rt, lacks) = resolve(&mut inliner, cache, key, rt)?;
                            let right_shape = lacks.map_or(rt.shape(), |lacks| &lacks.shape);
                            let shape = joiner.shape(row.shape(), right_shape).clone();
                            let mut values = Vec::with_capacity(shape.len());
                            match computes {
                                true => values.extend_from_slice(&left_values),
                                false => row.extend_values(&mut values)?,
                            }
                            rt.values_into(&mut values)?;
                            if let Some(lacks) = lacks {
                                values.extend(lacks.values(key).cloned());
                            }
                            let name = joiner.name().clone();
                            n += 1;
                            if keyed {
                                kept.push(Arc::new(TupleF::from_shape(name, shape, values)));
                            } else {
                                // nobody reads these keys: emission order will do
                                let key = Cow::Owned(Value::Int(n as i64 - 1));
                                let body = Body::Values {
                                    name,
                                    shape,
                                    values,
                                };
                                sink(Row { key, body });
                            }
                            Ok(())
                        };
                        match &build {
                            Build::Lookup(map) => match map.get_key_value(&on) {
                                Some((key, rt)) => emit(key, rt, None),
                                None => Ok(()),
                            },
                            Build::Hash { rows, table } => {
                                for &at in table.get(&*on).map_or(&[][..], Vec::as_slice) {
                                    let (key, rt) = &rows[at];
                                    emit(key, rt, Some(at))?;
                                }
                                Ok(())
                            }
                        }
                    }),
                )?;
                if failed.is_none() && keyed {
                    for (key, tuple) in canonical_keyed(kept)? {
                        sink(Row::tuple(Cow::Owned(key), Cow::Owned(tuple)));
                    }
                }
            }
            Op::GroupAgg { input, mut fold } => {
                input.stream(counts, &mut |row| fold.push(row.shape(), &row))?;
                for (key, tuple) in fold.finish()? {
                    n += 1;
                    sink(Row::tuple(Cow::Owned(key), Cow::Owned(tuple)));
                }
            }
            Op::OrderBy { input, attr, order } => {
                let mut entries = Vec::new();
                input.stream(
                    counts,
                    &mut guarded(&mut failed, |row| {
                        let sort_key = row.get(attr)?.into_owned();
                        let (key, tuple) = row.into_entry();
                        entries.push((sort_key, key, tuple));
                        Ok(())
                    }),
                )?;
                if failed.is_none() {
                    for (rank, tuple) in ranked(entries, order) {
                        n += 1;
                        sink(Row::tuple(Cow::Owned(rank), Cow::Owned(tuple)));
                    }
                }
            }
            Op::Limit { input, k } => input.stream(counts, &mut |row| {
                if n < k {
                    n += 1;
                    sink(row);
                }
            })?,
        }
        counts.push(n);
        failed.map_or(Ok(()), Err)
    }
}

/// `step` on every row until it first fails; the failure is kept for
/// after the input has drained (see the module docs).
fn guarded<'s>(
    failed: &'s mut Option<FdmError>,
    mut step: impl FnMut(Row<'_>) -> Result<()> + 's,
) -> impl FnMut(Row<'_>) + 's {
    move |row| {
        if failed.is_none() {
            if let Err(e) = step(row) {
                *failed = Some(e);
            }
        }
    }
}

/// Hands `rel`'s rows in key order to `sink` (see [`Op::Scan`]) and
/// says how many there were.
pub(crate) fn scan(rel: &RelationF, inline: bool, sink: &mut dyn FnMut(Row<'_>)) -> Result<usize> {
    let Some(map) = rel.stored_map() else {
        if inline {
            return scan(&with_inlined_keys(rel)?, false, sink);
        }
        let rows = rel.tuples()?;
        for (key, t) in &rows {
            sink(Row::tuple(Cow::Borrowed(key), Cow::Borrowed(t)));
        }
        return Ok(rows.len());
    };
    let mut inliner = inline.then(|| KeyInliner::new(rel.key_attrs()));
    let mut entries = map.iter();
    let mut chunk = Vec::with_capacity(CHUNK);
    loop {
        chunk.extend(entries.by_ref().take(CHUNK));
        if chunk.is_empty() {
            return Ok(map.len());
        }
        // the keys sit in the map's leaves, read as the chunk was filled
        touch(chunk.iter().map(|&(_, t)| (&[][..], &**t)));
        for (key, t) in chunk.drain(..) {
            let body = match &mut inliner {
                // a computed attribute may read the key: inline first
                Some(inliner) if t.has_computed_attrs() => {
                    Body::Tuple(Cow::Owned(inliner.inline(key, t)), None)
                }
                Some(inliner) => Body::Tuple(Cow::Borrowed(t), inliner.lacks(key, t.shape())),
                None => Body::Tuple(Cow::Borrowed(t), None),
            };
            sink(Row {
                key: Cow::Borrowed(key),
                body,
            });
        }
    }
}

/// Rows a scan or a join reads (and touches) at a time.
pub(crate) const CHUNK: usize = 32;

/// Touches every row of a chunk before any is handed on: the fetches
/// overlap in this tight loop, where one by one, behind a row's trip
/// through the operators, each would wait on memory. A row is its key
/// parts (a join's entry keeps them in a list of their own) and its tuple.
pub(crate) fn touch<'a>(chunk: impl IntoIterator<Item = (&'a [Value], &'a TupleF)>) {
    for (key, t) in chunk {
        if let Some(part) = key.first() {
            std::hint::black_box(std::mem::discriminant(part));
        }
        if t.attr_count() > 0 {
            std::hint::black_box(t.stored(0));
        }
    }
}

/// A join's build side.
enum Build<'r> {
    /// A join on the right relation's key ([`on_key`]): a probe is a
    /// lookup in its map — function application, no table.
    Lookup(&'r PMap<Value, Arc<TupleF>>),
    /// Any other join: the right rows (a non-plain body's key-inlined
    /// copy), hashed by join value.
    Hash {
        rows: Vec<(Value, Arc<TupleF>)>,
        table: FxHashMap<Value, Vec<usize>>,
    },
}

impl<'r> Build<'r> {
    fn new(right: &'r RelationF, rel_attr: &str) -> Result<Build<'r>> {
        if let Some(map) = right.stored_map().filter(|_| on_key(right, rel_attr)) {
            return Ok(Build::Lookup(map));
        }
        let rows = match right.is_plain_stored() {
            true => right.tuples()?,
            false => with_inlined_keys(right)?.tuples()?,
        };
        let key_names = right.key_attrs();
        let mut table: FxHashMap<Value, Vec<usize>> = FxHashMap::default();
        for (at, (key, t)) in rows.iter().enumerate() {
            let on = get_inlined(key, t, key_names, rel_attr)?;
            table.entry(on).or_default().push(at);
        }
        Ok(Build::Hash { rows, table })
    }
}

/// A tuple and the key parts it lacks, as [`Body::Tuple`] holds them.
type Lazy<'b> = (Cow<'b, Arc<TupleF>>, Option<&'b Arc<Lacks>>);

/// A matched right row as the output reads it: the stored tuple with the
/// key parts it lacks, or — computing — its inlined, frozen copy, made
/// once per right row where `cache` keeps it.
fn resolve<'b>(
    inliner: &'b mut KeyInliner,
    cache: Option<&'b mut Option<Arc<TupleF>>>,
    key: &Value,
    rt: &'b Arc<TupleF>,
) -> Result<Lazy<'b>> {
    if !rt.has_computed_attrs() {
        return Ok((Cow::Borrowed(rt), inliner.lacks(key, rt.shape())));
    }
    let rt = match cache {
        Some(Some(rt)) => Cow::Borrowed(&*rt),
        Some(slot) => Cow::Borrowed(&*slot.insert(frozen(inliner.inline(key, rt))?)),
        None => Cow::Owned(frozen(inliner.inline(key, rt))?),
    };
    Ok((rt, None))
}

/// `true` when joining on `attr` is applying `rel` as a function: `attr` is
/// its only key attribute, and no stored tuple also carries an attribute
/// of that name (which would answer instead of the key) or computes one.
/// One pass over the tuples' shapes, each shape checked once per run of
/// tuples sharing it — cheaper than the hash build it replaces.
fn on_key(rel: &RelationF, attr: &str) -> bool {
    let (Some(map), [key]) = (rel.stored_map(), rel.key_attrs()) else {
        return false;
    };
    let mut checked: Option<&Arc<Shape>> = None;
    **key == *attr
        && map.values().all(|t| {
            let shape = t.shape();
            if checked.is_some_and(|s| Arc::ptr_eq(s, shape)) {
                return true;
            }
            checked = Some(shape);
            !shape.has_computed() && shape.position(attr).is_none()
        })
}
