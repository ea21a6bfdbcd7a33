//! The n-ary `join` operator (paper Fig. 6).
//!
//! `join(subdatabase)` joins the relations of a database function **along
//! the relationship functions in its schema** — the FDM analogue of
//! "along the foreign key constraints" — and returns a single denormalized
//! relation function. The paper notes the optimizer may choose any join
//! strategy "including n-ary joins"; this implementation binds participant
//! tuples hash-style: each relationship's entries are indexed by the
//! participants already bound in the working rows, so chaining a
//! relationship costs O(rows + entries) instead of the nested
//! O(rows × entries) scan.
//!
//! Output attributes are qualified `relation.attr` (and
//! `relationship.attr` for the relationship's own attributes) so that a
//! denormalized row never has ambiguous names. A working row is a value
//! vector over a shared [`Shape`]: the qualified output shape is derived
//! once per distinct combination of input shapes (one, for homogeneous
//! relations), rows move values only, and results are assembled through
//! [`TupleF::from_shape`] and [`fdm_core::RelationBuilder`]'s O(n) bulk
//! path.
//!
//! **One pass.** The schema join builds its output as it probes:
//! - the last relationship's rows go straight into the `join_result`
//!   builder, presized from its entry count; an earlier relationship keeps
//!   working rows only because later ones probe by their bound keys;
//! - each distinct participant key is looked up once, through a memo that
//!   checks the last key first, and its tuple's values (computed ones
//!   evaluated) go once into an arena that every row copies its slice
//!   from;
//! - entries are joined `CHUNK` (32) at a time, each chunk's key lists and
//!   tuples touched first so that their fetches overlap — the group
//!   prefetching `physical.rs`'s scan does, through the same helper.
//!
//! The schema join and [`join_on`] run their probe side through the one
//! `probe` loop here; the plan's `Query::Join` streams its probe side through the physical
//! layer (`physical.rs`) and shares `RowJoiner`'s output shapes.
//!
//! **Join order** is cost-modeled: among the relationships connected to
//! the already-bound relations, [`join`] binds the one with the smallest
//! estimated output-row count, computed from the per-relationship
//! fan-out statistics every [`RelationshipF`] maintains
//! ([`fdm_core::stats`]) — not from raw entry counts, which ignore how
//! many working rows each entry multiplies into. The chosen order affects
//! cost only: the produced denormalized rows are identical for every
//! order (pinned by `tests/tests/join_planning.rs`), with row numbering
//! and attribute order following the executed order.

use crate::physical::{touch, CHUNK};
use fdm_core::{
    DatabaseF, FdmError, FxHashMap, Name, RelationBuilder, RelationF, RelationshipF, Result, Shape,
    ShapeMemo, TupleF, Value,
};
use std::sync::Arc;

/// One explicit equi-join condition between two relations' attributes
/// (the `on=[[customers.id, order.c_id], ...]` costume of Fig. 6).
#[derive(Debug, Clone)]
pub struct JoinOn {
    /// Left relation name.
    pub left_rel: String,
    /// Left attribute.
    pub left_attr: String,
    /// Right relation name.
    pub right_rel: String,
    /// Right attribute.
    pub right_attr: String,
}

impl JoinOn {
    /// Convenience constructor: `JoinOn::new("customers", "id", "order", "c_id")`.
    pub fn new(left_rel: &str, left_attr: &str, right_rel: &str, right_attr: &str) -> Self {
        JoinOn {
            left_rel: left_rel.to_string(),
            left_attr: left_attr.to_string(),
            right_rel: right_rel.to_string(),
            right_attr: right_attr.to_string(),
        }
    }
}

/// A denormalized row in the making: its values, over the shape that
/// names them.
type Row = (Arc<Shape>, Vec<Value>);

/// Interns `prefix.attr` qualified names once per distinct attribute, so
/// deriving a qualified shape never formats a name twice. The cache is a
/// flat vec with a linear scan: a relation has a handful of distinct
/// attribute names, and a short-string compare beats a SipHash probe at
/// that size.
pub(crate) struct Qualifier {
    prefix: String,
    cache: Vec<(Name, Name)>,
}

impl Qualifier {
    pub(crate) fn new(prefix: &str) -> Self {
        Qualifier {
            prefix: prefix.to_string(),
            cache: Vec::new(),
        }
    }

    /// The interned qualified name for `attr`.
    pub(crate) fn name(&mut self, attr: &Name) -> Name {
        if let Some((_, q)) = self.cache.iter().find(|(a, _)| a == attr) {
            return q.clone();
        }
        let q = Name::from(format!("{}.{attr}", self.prefix).as_str());
        self.cache.push((attr.clone(), q.clone()));
        q
    }
}

/// A tuple a join can copy values out of any number of times: itself if
/// every attribute is stored, otherwise a copy with the computed ones
/// evaluated (once, not once per output row).
pub(crate) fn frozen(tuple: Arc<TupleF>) -> Result<Arc<TupleF>> {
    match tuple.has_computed_attrs() {
        true => Ok(Arc::new(tuple.frozen()?)),
        false => Ok(tuple),
    }
}

/// Builds the rows a binary equi-join emits — the left values followed by
/// the right tuple's, the latter named `rel.attr` — deriving the output
/// shape once per distinct (left shape, right shape).
pub(crate) struct RowJoiner {
    name: Name,
    qual: Qualifier,
    shapes: ShapeMemo<Arc<Shape>>,
}

impl RowJoiner {
    pub(crate) fn new(rel: &str) -> Self {
        RowJoiner {
            // every row is named alike; one name per joiner, not per row
            name: Name::from("j"),
            qual: Qualifier::new(rel),
            shapes: ShapeMemo::new(),
        }
    }

    /// The name every output row goes by.
    pub(crate) fn name(&self) -> &Name {
        &self.name
    }

    /// The output shape for a left row of shape `left` and a right tuple
    /// of shape `right`: every value is materialized, so the row is all
    /// stored, whatever the two sides compute.
    pub(crate) fn shape(&mut self, left: &Arc<Shape>, right: &Arc<Shape>) -> &Arc<Shape> {
        let qual = &mut self.qual;
        self.shapes.get_or_derive([left, right], || {
            let qualified = right.names().iter().map(|n| qual.name(n));
            let names: Vec<Name> = left.names().iter().cloned().chain(qualified).collect();
            Shape::new(names)
        })
    }

    pub(crate) fn row(
        &mut self,
        left: &Arc<Shape>,
        values: &[Value],
        right: &TupleF,
    ) -> Result<Row> {
        let shape = self.shape(left, right.shape()).clone();
        let mut out = Vec::with_capacity(shape.len());
        out.extend_from_slice(values);
        right.values_into(&mut out)?;
        Ok((shape, out))
    }

    /// [`Self::row`] as the tuple `Query::Join` emits (maintained joins
    /// rebuild theirs through this).
    pub(crate) fn tuple(
        &mut self,
        left: &Arc<Shape>,
        values: &[Value],
        right: &TupleF,
    ) -> Result<TupleF> {
        let (shape, values) = self.row(left, values, right)?;
        Ok(TupleF::from_shape(self.name.clone(), shape, values))
    }
}

/// The probe loop every join shares: for each `left` item, `emit` each of
/// its `matches` (indices into the build side), in order.
///
/// Matches go [`CHUNK`] at a time, and every build row of a chunk —
/// `build(at)` names its key parts and tuple — is touched before the first
/// is emitted: the fetches overlap, where one by one each would wait on
/// memory behind the previous row's work (group prefetching, as
/// [`crate::physical`]'s scan does).
///
/// The loop stays on one thread by measurement: chunking whichever side is
/// large across threads (the left items, or the one seed row's 60k matches
/// of a schema join) ran the Fig. 6 join at 0.75× and the fig13 chain at
/// 0.81× of it on a 2-vCPU host (`CHANGES.md`).
pub(crate) fn probe<'m, 'b, L>(
    left: &[L],
    mut matches: impl FnMut(&L) -> Result<&'m [usize]>,
    build: impl Fn(usize) -> (&'b [Value], &'b TupleF),
    mut emit: impl FnMut(&L, usize) -> Result<()>,
) -> Result<()> {
    for l in left {
        for chunk in matches(l)?.chunks(CHUNK) {
            touch(chunk.iter().map(|&at| build(at)));
            for &at in chunk {
                emit(l, at)?;
            }
        }
    }
    Ok(())
}

/// The `join_result` relation, built as its rows arrive: numbered in
/// arrival order, so ids ascend and the bulk build sorts nothing, and all
/// named alike, as `Query::Join` names its rows.
struct Output {
    rows: RelationBuilder,
    name: Name,
}

impl Output {
    fn with_capacity(n: usize) -> Output {
        Output {
            rows: RelationBuilder::new("join_result", &["row"]).with_capacity(n),
            name: Name::from("j"),
        }
    }

    fn push(&mut self, shape: Arc<Shape>, values: Vec<Value>) {
        let id = Value::Int(self.rows.len() as i64);
        let tuple = TupleF::from_shape(self.name.clone(), shape, values);
        self.rows.push(id, tuple);
    }

    fn build(self) -> Result<RelationF> {
        self.rows.build()
    }
}

/// Joins the subdatabase along its relationship functions, producing one
/// denormalized relation function (Fig. 6, first costume).
///
/// Every relationship function in `db` whose participants are all present
/// as relations contributes; relationships sharing a participant chain
/// (their bound keys must agree). Relations not reachable from any
/// relationship are ignored (a join has nothing to say about them).
///
/// Relationships are ordered by estimated output rows from their fan-out
/// statistics (see the module docs). The order moves only the probe cost,
/// never the rows — pinned by `tests/tests/join_planning.rs`.
pub fn join(db: &DatabaseF) -> Result<RelationF> {
    let relationships: Vec<(Name, Arc<RelationshipF>)> = db
        .relationships()
        .map(|(n, r)| (n.clone(), r.clone()))
        .collect();
    if relationships.is_empty() {
        return Err(FdmError::Other(
            "join: database has no relationship functions; use join_on with explicit conditions"
                .to_string(),
        ));
    }

    let mut rows: Vec<JoinRow> = vec![JoinRow {
        shape: Shape::new([]),
        values: Vec::new(),
        bound: Vec::new(),
    }];
    let mut bound_rels: Vec<Name> = Vec::new();
    let mut pending: Vec<(Name, Arc<RelationshipF>)> = relationships;
    // Process relationships, preferring ones that share a participant with
    // what is already bound (so chains connect instead of going cartesian),
    // and among those the one with the smallest **estimated output rows**
    // (working rows × average fan-out of the bound side, from the
    // relationship's maintained `fdm_core::stats`) — joining the cheapest
    // relationship first keeps the working row set small for every later
    // probe. Ties keep declaration order (`min_by` returns the first
    // minimum).
    loop {
        let connected = |rsf: &RelationshipF| {
            rsf.participants()
                .iter()
                .any(|p| bound_rels.contains(&p.function))
        };
        // Estimated rows after binding this relationship: bound positions
        // are the participants backed by an already-bound relation. With
        // nothing bound the estimate degenerates to rows × entries, so the
        // disconnected fallback still starts from the smallest relationship.
        let estimate = |rsf: &RelationshipF| -> f64 {
            let bound_positions: Vec<usize> = rsf
                .participants()
                .iter()
                .enumerate()
                .filter(|(_, p)| bound_rels.contains(&p.function))
                .map(|(i, _)| i)
                .collect();
            rsf.stats().estimate_join_rows(rows.len(), &bound_positions)
        };
        let cheapest = |candidates: &mut dyn Iterator<Item = (usize, f64)>| {
            candidates
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("estimates are finite"))
                .map(|(i, _)| i)
        };
        let idx = cheapest(
            &mut pending
                .iter()
                .enumerate()
                .filter(|(_, (_, rsf))| connected(rsf))
                .map(|(i, (_, rsf))| (i, estimate(rsf))),
        )
        .unwrap_or_else(|| {
            // nothing connects (the first pick, or a disconnected
            // component): start from the cheapest generator
            cheapest(
                &mut pending
                    .iter()
                    .enumerate()
                    .map(|(i, (_, rsf))| (i, estimate(rsf))),
            )
            .unwrap_or(0)
        });
        let (rname, rsf) = pending.remove(idx);
        // The last relationship's rows are the output; the bound keys only
        // exist to connect later relationships, so it keeps none.
        if pending.is_empty() {
            let mut out = Output::with_capacity(rsf.len());
            join_one_relationship(
                db,
                &rname,
                &rsf,
                &rows,
                &mut bound_rels,
                false,
                |s, v, _| out.push(s.clone(), v),
            )?;
            return out.build();
        }
        let mut next = Vec::new();
        join_one_relationship(db, &rname, &rsf, &rows, &mut bound_rels, true, |s, v, b| {
            next.push(JoinRow {
                shape: s.clone(),
                values: v,
                bound: b,
            })
        })?;
        rows = next;
    }
}

/// A partially joined row of the schema join: the denormalized values so
/// far, and the key each already-joined relation is bound to (in the
/// order the join's `bound_rels` lists them — all rows are built through
/// the same relationship sequence, so the relation names are kept once,
/// not per row).
struct JoinRow {
    shape: Arc<Shape>,
    values: Vec<Value>,
    bound: Vec<Value>,
}

/// Participant tuples, each resolved once: their values back to back
/// (computed ones evaluated), and per tuple where its run starts and ends
/// and the shape it came with. An output row copies its tuple's run.
#[derive(Default)]
struct Arena {
    values: Vec<Value>,
    tuples: Vec<(usize, usize, Arc<Shape>)>,
}

impl Arena {
    /// Appends `tuple`'s values and says where they went.
    fn add(&mut self, tuple: &TupleF) -> Result<usize> {
        let start = self.values.len();
        tuple.values_into(&mut self.values)?;
        let end = self.values.len();
        self.tuples.push((start, end, tuple.shape().clone()));
        Ok(self.tuples.len() - 1)
    }

    fn values(&self, at: usize) -> &[Value] {
        let (start, end, _) = self.tuples[at];
        &self.values[start..end]
    }

    fn shape(&self, at: usize) -> &Arc<Shape> {
        &self.tuples[at].2
    }
}

/// Resolves one participant position's keys to [`Arena`] tuples, each
/// distinct key once; `None` is a dangling key.
struct Resolver<'r, 'e> {
    rel: &'r RelationF,
    seen: FxHashMap<Value, Option<usize>>,
    /// The key resolved last, checked before the memo: entries that share
    /// a participant tend to sit together.
    last: Option<(&'e Value, Option<usize>)>,
}

impl<'r, 'e> Resolver<'r, 'e> {
    fn resolve(&mut self, key: &'e Value, arena: &mut Arena) -> Result<Option<usize>> {
        if let Some((last, hit)) = self.last {
            if last == key {
                return Ok(hit);
            }
        }
        let hit = match self.seen.get(key) {
            Some(&hit) => hit,
            None => {
                let hit = match self.rel.lookup(key) {
                    Some(tuple) => Some(arena.add(&tuple)?),
                    None => None,
                };
                self.seen.insert(key.clone(), hit);
                hit
            }
        };
        self.last = Some((key, hit));
        Ok(hit)
    }
}

/// Extends each working row with the matching entries of one relationship
/// and hands every extended row — its shape, values and (if `need_bound`)
/// bound keys — to `sink`, in order.
///
/// Entries are indexed by the participants the rows have already bound
/// (hash build over the relationship side), so each row probes once instead
/// of scanning every entry; unbound participants are then bound through
/// their [`Resolver`]s (inner join: a dangling key drops the entry) and
/// their relations appended to `bound_rels`.
fn join_one_relationship(
    db: &DatabaseF,
    rname: &str,
    rsf: &RelationshipF,
    rows: &[JoinRow],
    bound_rels: &mut Vec<Name>,
    need_bound: bool,
    mut sink: impl FnMut(&Arc<Shape>, Vec<Value>, Vec<Value>),
) -> Result<()> {
    // Resolve participant relations.
    let mut parts: Vec<(Name, Arc<RelationF>)> = Vec::with_capacity(rsf.participants().len());
    for p in rsf.participants() {
        let rel = db.relation(&p.function).map_err(|_| {
            FdmError::Other(format!(
                "join: relationship '{rname}' references '{}' which is not a relation in the database",
                p.function
            ))
        })?;
        parts.push((p.function.clone(), rel));
    }

    // Which participant positions are already bound in the working rows,
    // and where in a row's `bound` their key sits?
    let bound_positions: Vec<(usize, usize)> = parts
        .iter()
        .enumerate()
        .filter_map(|(i, (pname, _))| Some((i, bound_rels.iter().position(|b| b == pname)?)))
        .collect();
    // Each relation binds once: a second participant position backed by an
    // already-seen relation contributes no further binding (matching the
    // insert-era semantics) — resolving it again would emit duplicate
    // qualified names that shadow each other in the output tuple.
    let mut unbound_positions: Vec<usize> = Vec::new();
    for i in 0..parts.len() {
        if bound_positions.iter().any(|&(b, _)| b == i) {
            continue;
        }
        if unbound_positions.iter().any(|&j| parts[j].0 == parts[i].0) {
            continue;
        }
        unbound_positions.push(i);
    }
    bound_rels.extend(unbound_positions.iter().map(|&i| parts[i].0.clone()));

    // One `Value` per probe: the single bound key directly, or a key list —
    // both hash without a per-probe `Vec` allocation for the common
    // single-shared-participant chain.
    let probe_key = |keys: &mut dyn Iterator<Item = Value>| -> Value {
        let first = keys.next().unwrap_or(Value::Unit);
        match keys.next() {
            None => first,
            Some(second) => {
                Value::list([first, second].into_iter().chain(keys.collect::<Vec<_>>()))
            }
        }
    };

    // Hash-index the relationship entries by their bound-position keys.
    // With nothing bound yet (the first relationship) every row matches
    // every entry, so the index would be one giant bucket — skip it.
    let entries: Vec<(&[Value], &Arc<TupleF>)> = rsf.iter_entries().collect();
    let all_entries: Vec<usize> = if bound_positions.is_empty() {
        (0..entries.len()).collect()
    } else {
        Vec::new()
    };
    let mut index: FxHashMap<Value, Vec<usize>> = FxHashMap::default();
    if !bound_positions.is_empty() {
        index.reserve(entries.len());
        for (ei, (args, _)) in entries.iter().enumerate() {
            let probe = probe_key(&mut bound_positions.iter().map(|&(i, _)| args[i].clone()));
            index.entry(probe).or_default().push(ei);
        }
    }

    // One resolver per newly bound participant, its memo presized for
    // every distinct key the entries could name.
    let mut resolvers: Vec<Resolver> = unbound_positions
        .iter()
        .map(|&i| {
            let rel = &*parts[i].1;
            let seen = FxHashMap::with_capacity_and_hasher(
                rel.len().min(entries.len()),
                Default::default(),
            );
            Resolver {
                rel,
                seen,
                last: None,
            }
        })
        .collect();
    let mut arena = Arena::default();

    // Participant key names (`customers.cid`) formatted once, not per row.
    let key_names: Vec<Name> = rsf
        .participants()
        .iter()
        .map(|p| Name::from(format!("{}.{}", p.function, p.key).as_str()))
        .collect();
    // The interned qualified names, the arena tuples of the entry at hand,
    // and the output shape per combination of input shapes.
    let mut part_quals: Vec<Qualifier> = parts.iter().map(|(p, _)| Qualifier::new(p)).collect();
    let mut rel_qual = Qualifier::new(rname);
    let mut found: Vec<usize> = Vec::with_capacity(unbound_positions.len());
    let mut shapes: ShapeMemo<Arc<Shape>> = ShapeMemo::new();

    probe(
        rows,
        // With nothing bound every row matches every entry; otherwise the
        // hash index filters by the row's bound keys.
        |row| {
            if bound_positions.is_empty() {
                return Ok(&all_entries[..]);
            }
            let probe = probe_key(&mut bound_positions.iter().map(|&(_, b)| row.bound[b].clone()));
            Ok(index.get(&probe).map_or(&[][..], Vec::as_slice))
        },
        |ei| (entries[ei].0, &**entries[ei].1),
        |row, ei| {
            let (args, rattrs) = entries[ei];
            // Resolve every unbound participant first (inner join: a
            // dangling key drops the entry before any row is allocated).
            found.clear();
            for (resolver, &i) in resolvers.iter_mut().zip(&unbound_positions) {
                match resolver.resolve(&args[i], &mut arena)? {
                    Some(at) => found.push(at),
                    None => return Ok(()),
                }
            }
            // The output shape: the row so far, then per newly bound
            // participant its key and its tuple's attributes, then the
            // relationship's own — all qualified, derived once per
            // combination of the shapes involved.
            let inputs = [&row.shape]
                .into_iter()
                .chain(found.iter().map(|&at| arena.shape(at)))
                .chain([rattrs.shape()]);
            let shape = shapes.get_or_derive(inputs, || {
                let mut names = Vec::new();
                for (&i, &at) in unbound_positions.iter().zip(&found) {
                    names.push(key_names[i].clone());
                    let qual = &mut part_quals[i];
                    names.extend(arena.shape(at).names().iter().map(|n| qual.name(n)));
                }
                names.extend(rattrs.attr_names().map(|n| rel_qual.name(n)));
                row.shape.with_names(names)
            });
            let mut values = Vec::with_capacity(shape.len());
            values.extend_from_slice(&row.values);
            for (&i, &at) in unbound_positions.iter().zip(&found) {
                values.push(args[i].clone());
                values.extend_from_slice(arena.values(at));
            }
            rattrs.values_into(&mut values)?;
            let mut bound = Vec::new();
            if need_bound {
                bound.reserve_exact(row.bound.len() + unbound_positions.len());
                bound.extend_from_slice(&row.bound);
                bound.extend(unbound_positions.iter().map(|&i| args[i].clone()));
            }
            sink(shape, values, bound);
            Ok(())
        },
    )
}

/// Joins relations by explicit equi-conditions (Fig. 6, second costume),
/// left-to-right with a `HashMap` index built over each newly joined side's
/// attribute.
pub fn join_on(db: &DatabaseF, conditions: &[JoinOn]) -> Result<RelationF> {
    if conditions.is_empty() {
        return Err(FdmError::Other("join_on: no conditions given".to_string()));
    }
    // working rows over qualified shapes + set of bound relation names
    let mut bound: Vec<Name> = Vec::new();

    // seed with the first condition's left relation (keys inlined so
    // conditions may reference key attributes like `customers.cid`)
    let first = &conditions[0];
    let left = crate::filter::with_inlined_keys(db.relation(&first.left_rel)?.as_ref())?;
    let mut seed = RowJoiner::new(&first.left_rel);
    let nothing = Shape::new([]);
    let mut rows: Vec<Row> = Vec::with_capacity(left.len());
    for (_, t) in left.tuples()? {
        rows.push(seed.row(&nothing, &[], &t)?);
    }
    bound.push(Name::from(first.left_rel.as_str()));

    for cond in conditions {
        let (probe_rel, probe_attr, build_rel, build_attr) =
            if bound.iter().any(|b| b.as_ref() == cond.left_rel) {
                (
                    &cond.left_rel,
                    &cond.left_attr,
                    &cond.right_rel,
                    &cond.right_attr,
                )
            } else if bound.iter().any(|b| b.as_ref() == cond.right_rel) {
                (
                    &cond.right_rel,
                    &cond.right_attr,
                    &cond.left_rel,
                    &cond.left_attr,
                )
            } else {
                return Err(FdmError::Other(format!(
                    "join_on: condition {}.{} = {}.{} is disconnected from the join so far",
                    cond.left_rel, cond.left_attr, cond.right_rel, cond.right_attr
                )));
            };
        if bound.iter().any(|b| b.as_ref() == build_rel.as_str()) {
            // both sides already bound: apply as a post-filter
            let lq = format!("{}.{}", cond.left_rel, cond.left_attr);
            let rq = format!("{}.{}", cond.right_rel, cond.right_attr);
            rows.retain(|(shape, values)| {
                let l = shape.position(&lq).map(|at| &values[at]);
                let r = shape.position(&rq).map(|at| &values[at]);
                matches!((l, r), (Some(a), Some(b)) if a == b)
            });
            continue;
        }
        // hash-build the new side by its join attribute (keys inlined);
        // probe hits copy values straight out of the build tuples
        let build_src = db.relation(build_rel)?;
        let build = crate::filter::with_inlined_keys(build_src.as_ref())?;
        let build_rows: Vec<Arc<TupleF>> = build
            .tuples()?
            .into_iter()
            .map(|(_, t)| frozen(t))
            .collect::<Result<_>>()?;
        // pre-size the hash table from the stats layer's distinct-count
        // *hint* — the table holds one entry per distinct join-attribute
        // value, not one per row (exact for key/unique attrs). The hint
        // is read off the database's own relation value (same rows, same
        // distinct counts as the inlined working copy — whose caches are
        // always fresh-empty) so it can see sketches a planner already
        // computed there; it never triggers the O(n) sketch build itself,
        // because a capacity guess is not worth an analyze scan per join.
        let mut table: FxHashMap<Value, Vec<usize>> = FxHashMap::with_capacity_and_hasher(
            fdm_core::distinct_hint(&build_src, build_attr),
            Default::default(),
        );
        for (bi, t) in build_rows.iter().enumerate() {
            table.entry(t.get(build_attr)?).or_default().push(bi);
        }
        let probe_q = format!("{probe_rel}.{probe_attr}");
        let mut joiner = RowJoiner::new(build_rel);
        let mut next = Vec::new();
        probe(
            &rows,
            |(shape, values)| {
                let hits = shape
                    .position(&probe_q)
                    .and_then(|at| table.get(&values[at]));
                Ok(hits.map_or(&[][..], Vec::as_slice))
            },
            |bi| (&[][..], &*build_rows[bi]),
            |(shape, values), bi| {
                next.push(joiner.row(shape, values, &build_rows[bi])?);
                Ok(())
            },
        )?;
        rows = next;
        bound.push(Name::from(build_rel.as_str()));
    }

    let mut out = Output::with_capacity(rows.len());
    for (shape, values) in rows {
        out.push(shape, values);
    }
    out.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::retail_db;

    #[test]
    fn fig6_schema_driven_join() {
        let db = retail_db();
        let joined = join(&db).unwrap();
        // orders: (1,10),(1,11),(2,10) → 3 denormalized rows
        assert_eq!(joined.len(), 3);
        let (_, t) = joined.tuples().unwrap().remove(0);
        assert!(t.has_attr("customers.name"));
        assert!(t.has_attr("products.name"));
        assert!(t.has_attr("order.date"));
        assert!(t.has_attr("customers.cid"));
        // denormalization duplicates Alice (cid=1) across her two orders
        let alice_rows = joined
            .tuples()
            .unwrap()
            .into_iter()
            .filter(|(_, t)| t.get("customers.name").unwrap() == Value::str("Alice"))
            .count();
        assert_eq!(alice_rows, 2);
    }

    #[test]
    fn schema_join_skips_dangling_entries() {
        // add an order pointing at a product that does not exist
        let db = retail_db();
        let order = db.relationship("order").unwrap();
        let order2 = order
            .insert_link(&[Value::Int(2), Value::Int(999)])
            .unwrap();
        let db = db.with_relationship(order2);
        let joined = join(&db).unwrap();
        assert_eq!(joined.len(), 3, "dangling entry contributes nothing");
    }

    #[test]
    fn fig6_explicit_on_join_matches_schema_join() {
        let db = retail_db();
        // express the order relationship as a plain relation and join on it
        let order_rel = db.relationship("order").unwrap().to_relation();
        let db2 = db.with_relation(order_rel.renamed("order_rel"));
        let joined = join_on(
            &db2,
            &[
                JoinOn::new("customers", "cid", "order_rel", "cid"),
                JoinOn::new("order_rel", "pid", "products", "pid"),
            ],
        )
        .unwrap();
        assert_eq!(joined.len(), 3);
        let schema_joined = join(&db).unwrap();
        assert_eq!(schema_joined.len(), joined.len());
    }

    #[test]
    fn join_on_detects_disconnected_conditions() {
        let db = retail_db();
        let err = join_on(&db, &[JoinOn::new("products", "pid", "nonexistent", "x")]).unwrap_err();
        assert!(err.to_string().contains("nonexistent"), "{err}");
    }

    #[test]
    fn join_without_relationships_errors() {
        let db = DatabaseF::new("empty").with_relation(RelationF::new("r", &["id"]));
        assert!(join(&db).is_err());
    }

    #[test]
    fn customers_cid_key_is_in_output() {
        let db = retail_db();
        let joined = join(&db).unwrap();
        for (_, t) in joined.tuples().unwrap() {
            let cid = t.get("customers.cid").unwrap();
            assert!(matches!(cid, Value::Int(_)));
            let pid = t.get("products.pid").unwrap();
            assert!(matches!(pid, Value::Int(_)));
        }
    }

    #[test]
    fn self_relationship_binds_each_relation_once() {
        // manages(employee: people, manager: people) — both participants
        // share one relation. The join must bind `people` once per entry:
        // no duplicate `people.*` attribute names shadowing each other.
        use fdm_core::{Domain, Participant, RelationshipF, SharedDomain, ValueType};
        let people = RelationF::new("people", &["pid"])
            .insert(
                Value::Int(1),
                fdm_core::TupleF::builder("p1")
                    .attr("name", "Alice")
                    .build(),
            )
            .unwrap()
            .insert(
                Value::Int(2),
                fdm_core::TupleF::builder("p2").attr("name", "Bob").build(),
            )
            .unwrap();
        let dom = SharedDomain::new("pid", Domain::Typed(ValueType::Int));
        let manages = RelationshipF::new(
            "manages",
            vec![
                Participant::new("people", "eid", dom.clone()),
                Participant::new("people", "mid", dom.clone()),
            ],
        )
        .insert_link(&[Value::Int(2), Value::Int(1)])
        .unwrap();
        let db = DatabaseF::new("org")
            .with_domain(dom)
            .with_relation(people)
            .with_relationship(manages);
        let joined = join(&db).unwrap();
        assert_eq!(joined.len(), 1);
        let (_, t) = joined.tuples().unwrap().remove(0);
        // exactly one people.name — the bound (first) participant's tuple
        let name_count = t
            .attr_names()
            .filter(|n| n.as_ref() == "people.name")
            .count();
        assert_eq!(name_count, 1, "no shadowed duplicate names: {t:?}");
        assert_eq!(t.get("people.eid").unwrap(), Value::Int(2));
        assert_eq!(t.get("people.name").unwrap(), Value::str("Bob"));
    }

    #[test]
    fn qualifier_interns_names() {
        let mut q = Qualifier::new("r");
        let a1 = q.name(&Name::from("x"));
        let a2 = q.name(&Name::from("x"));
        assert_eq!(a1.as_ref(), "r.x");
        // same Arc, not merely equal strings
        assert!(Arc::ptr_eq(&a1, &a2));
    }
}
