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
//! denormalized row never has ambiguous names. Qualified names are interned
//! once per (relation, attribute) by the internal `Qualifier` — not re-formatted per
//! tuple — and results are assembled through [`fdm_core::RelationBuilder`]'s
//! O(n) bulk path.
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

use fdm_core::{
    par_map_chunks, DatabaseF, FdmError, FxHashMap, Name, ParConfig, RelationBuilder, RelationF,
    RelationshipF, Result, TupleF, Value,
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

/// A qualified attribute run shared across output rows.
pub(crate) type AttrRun = Arc<[(Name, Value)]>;

/// A partially joined row: which relation keys are bound, and the merged
/// attribute list accumulated so far. The bound set is a flat vec — join
/// chains touch a handful of relations, and a linear scan beats a tree map
/// (and its per-row node allocations) at that size.
#[derive(Clone)]
struct JoinRow {
    /// `(relation name, bound key)` pairs
    bound: Vec<(Name, Value)>,
    /// qualified attribute values accumulated so far
    attrs: Vec<(Name, Value)>,
}

impl JoinRow {
    fn bound_key(&self, rel: &Name) -> Option<&Value> {
        self.bound.iter().find(|(n, _)| n == rel).map(|(_, v)| v)
    }
}

/// Interns `prefix.attr` qualified names once per distinct attribute, so
/// qualification never re-formats per tuple. The cache is a flat vec with a
/// linear scan: a relation has a handful of distinct attribute names, and a
/// short-string compare beats a SipHash probe at that size.
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

    /// Qualifies every materialized attribute of `tuple` into `out`.
    pub(crate) fn qualify(&mut self, tuple: &TupleF, out: &mut Vec<(Name, Value)>) -> Result<()> {
        out.reserve(tuple.attr_count());
        for attr in tuple.attr_names() {
            out.push((self.name(attr), tuple.get(attr)?));
        }
        Ok(())
    }
}

/// Builds the `join_result` relation from denormalized attribute rows
/// through the bulk fast path (row ids ascend, so no sort happens; the
/// interned attribute names move straight into the tuples, unre-allocated).
fn rows_to_relation(rows: impl IntoIterator<Item = Vec<(Name, Value)>>) -> Result<RelationF> {
    let rows = rows.into_iter();
    let mut out = RelationBuilder::new("join_result", &["row"]).with_capacity(rows.size_hint().0);
    // every row is named alike, as `Query::Join` names its rows: one name
    let name = Name::from("j");
    for (i, attrs) in rows.enumerate() {
        out.push(
            Value::Int(i as i64),
            TupleF::from_parts(name.clone(), attrs),
        );
    }
    out.build()
}

/// Joins the subdatabase along its relationship functions, producing one
/// denormalized relation function (Fig. 6, first costume).
///
/// Every relationship function in `db` whose participants are all present
/// as relations contributes; relationships sharing a participant chain
/// (their bound keys must agree). Relations not reachable from any
/// relationship are ignored (a join has nothing to say about them).
///
/// Cost-model selection follows the ambient
/// [`OptimizerConfig`](crate::optimizer::OptimizerConfig) resolution
/// (`FDM_JOIN_COST=entries` as the env fallback); use [`join_with`] to
/// pin it explicitly.
pub fn join(db: &DatabaseF) -> Result<RelationF> {
    join_with(db, &crate::optimizer::OptimizerConfig::new())
}

/// [`join`] with an explicit [`OptimizerConfig`](crate::optimizer::OptimizerConfig):
/// the config's [`join_cost`](crate::optimizer::OptimizerConfig::join_cost)
/// resolution (explicit setting > `FDM_JOIN_COST` env > stats default)
/// decides whether relationship ordering uses fan-out statistics or the
/// raw-entry-count heuristic. Either model produces identical rows —
/// pinned by `tests/tests/join_planning.rs` — only the probe cost moves.
pub fn join_with(db: &DatabaseF, config: &crate::optimizer::OptimizerConfig) -> Result<RelationF> {
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
        bound: Vec::new(),
        attrs: Vec::new(),
    }];
    let mut pending: Vec<(Name, Arc<RelationshipF>)> = relationships;
    // Process relationships, preferring ones that share a participant with
    // what is already bound (so chains connect instead of going cartesian),
    // and among those the one with the smallest **estimated output rows**
    // (working rows × average fan-out of the bound side, from the
    // relationship's maintained `fdm_core::stats`) — joining the cheapest
    // relationship first keeps the working row set small for every later
    // probe. `JoinCostModel::Entries` (config, or `FDM_JOIN_COST=entries`
    // as the env fallback) selects the PR 2 raw-entry-count heuristic (the
    // pinning tests drive both and prove the produced rows are identical
    // either way). Ties keep declaration order (`min_by` returns the first
    // minimum).
    let cost_by_entries = config.join_cost() == crate::optimizer::JoinCostModel::Entries;
    while !pending.is_empty() {
        let bound_rels: std::collections::BTreeSet<Name> = rows
            .first()
            .map(|r| r.bound.iter().map(|(n, _)| n.clone()).collect())
            .unwrap_or_default();
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
            if cost_by_entries {
                return rsf.len() as f64;
            }
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
        // The bound set only exists to connect later relationships; the
        // last one can skip maintaining it.
        let need_bound = !pending.is_empty();
        rows = join_one_relationship(db, &rname, &rsf, rows, need_bound)?;
    }

    rows_to_relation(rows.into_iter().map(|r| r.attrs))
}

/// Extends each working row with the matching entries of one relationship.
///
/// Entries are indexed by the participants the rows have already bound
/// (hash build over the relationship side), so each row probes once instead
/// of scanning every entry; unbound participants are then bound by key
/// lookup into their relations (inner join: a dangling key drops the
/// entry).
fn join_one_relationship(
    db: &DatabaseF,
    rname: &str,
    rsf: &RelationshipF,
    rows: Vec<JoinRow>,
    need_bound: bool,
) -> Result<Vec<JoinRow>> {
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
    if rows.is_empty() {
        return Ok(rows);
    }

    // Which participant positions are already bound in the working rows?
    // All rows share one bound set (they are built through the same
    // relationship sequence), so the first row decides.
    let bound_positions: Vec<usize> = parts
        .iter()
        .enumerate()
        .filter(|(_, (pname, _))| rows[0].bound_key(pname).is_some())
        .map(|(i, _)| i)
        .collect();
    // Each relation binds once: a second participant position backed by an
    // already-seen relation contributes no further binding (matching the
    // insert-era semantics) — resolving it again would emit duplicate
    // qualified names that shadow each other in the output tuple.
    let mut unbound_positions: Vec<usize> = Vec::new();
    for i in 0..parts.len() {
        if bound_positions.contains(&i) {
            continue;
        }
        if unbound_positions.iter().any(|&j| parts[j].0 == parts[i].0) {
            continue;
        }
        unbound_positions.push(i);
    }

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
            let probe = probe_key(&mut bound_positions.iter().map(|&i| args[i].clone()));
            index.entry(probe).or_default().push(ei);
        }
    }

    // Participant key names (`customers.cid`) formatted once, not per row.
    let key_names: Vec<Name> = rsf
        .participants()
        .iter()
        .map(|p| Name::from(format!("{}.{}", p.function, p.key).as_str()))
        .collect();

    /// Per-worker mutable state: one qualifier per participant (interned
    /// qualified names) and the participant-tuple attribute-run cache
    /// (participant tuples repeat across many output rows; `None` caches a
    /// dangling key). Each thread owns its own — the caches are pure
    /// memoization, so duplicating them across chunks changes cost, never
    /// content.
    struct Worker {
        part_quals: Vec<Qualifier>,
        part_cache: Vec<FxHashMap<Value, Option<AttrRun>>>,
        scratch: Vec<AttrRun>,
    }

    impl Worker {
        fn new(parts: &[(Name, Arc<RelationF>)]) -> Worker {
            Worker {
                part_quals: parts.iter().map(|(p, _)| Qualifier::new(p)).collect(),
                part_cache: parts.iter().map(|_| FxHashMap::default()).collect(),
                scratch: Vec::new(),
            }
        }
    }

    /// Extends one working row with its matching entries — the shared body
    /// of the sequential and parallel paths. `entry_attrs` supplies the
    /// relationship's own qualified attributes per entry index (lazy in the
    /// sequential path, precomputed in the parallel one).
    #[allow(clippy::too_many_arguments)]
    fn emit_rows_for(
        row: &JoinRow,
        matches: &[usize],
        entries: &[(&[Value], &Arc<TupleF>)],
        parts: &[(Name, Arc<RelationF>)],
        unbound_positions: &[usize],
        key_names: &[Name],
        need_bound: bool,
        entry_attrs: &mut dyn FnMut(usize) -> Result<AttrRun>,
        w: &mut Worker,
        next: &mut Vec<JoinRow>,
    ) -> Result<()> {
        'entry: for &ei in matches {
            let (args, _) = &entries[ei];
            // Resolve every unbound participant to its cached qualified
            // attribute run first (inner join: a dangling key drops the
            // entry before any row is allocated).
            w.scratch.clear();
            for &i in unbound_positions {
                let arg = &args[i];
                let cached = match w.part_cache[i].get(arg) {
                    Some(c) => c.clone(),
                    None => {
                        let computed = match parts[i].1.lookup(arg) {
                            Some(tuple) => {
                                let mut attrs = vec![(key_names[i].clone(), arg.clone())];
                                w.part_quals[i].qualify(&tuple, &mut attrs)?;
                                Some(AttrRun::from(attrs))
                            }
                            None => None,
                        };
                        w.part_cache[i].insert(arg.clone(), computed.clone());
                        computed
                    }
                };
                match cached {
                    Some(attrs) => w.scratch.push(attrs),
                    None => continue 'entry,
                }
            }
            let rel_attrs = entry_attrs(ei)?;
            // Assemble the output row in one exact-capacity allocation.
            let cap = row.attrs.len()
                + w.scratch.iter().map(|r| r.len()).sum::<usize>()
                + rel_attrs.len();
            let mut attrs = Vec::with_capacity(cap);
            attrs.extend_from_slice(&row.attrs);
            for run in &w.scratch {
                attrs.extend(run.iter().cloned());
            }
            attrs.extend(rel_attrs.iter().cloned());
            let bound = if need_bound {
                let mut bound = Vec::with_capacity(row.bound.len() + unbound_positions.len());
                bound.extend_from_slice(&row.bound);
                for &i in unbound_positions {
                    bound.push((parts[i].0.clone(), args[i].clone()));
                }
                bound
            } else {
                Vec::new()
            };
            next.push(JoinRow { bound, attrs });
        }
        Ok(())
    }

    /// Which entries does a working row match? With nothing bound, all of
    /// them; otherwise the hash index filters by the bound keys.
    fn matches_for<'a>(
        row: &JoinRow,
        bound_positions: &[usize],
        parts: &[(Name, Arc<RelationF>)],
        all_entries: &'a [usize],
        index: &'a FxHashMap<Value, Vec<usize>>,
        probe_key: &dyn Fn(&mut dyn Iterator<Item = Value>) -> Value,
    ) -> Option<&'a [usize]> {
        if bound_positions.is_empty() {
            Some(all_entries)
        } else {
            let probe = probe_key(&mut bound_positions.iter().map(|&i| {
                row.bound_key(&parts[i].0)
                    .expect("position is bound")
                    .clone()
            }));
            index.get(&probe).map(Vec::as_slice)
        }
    }

    // The relationship's own attributes are qualified once per entry —
    // eagerly in one cache-friendly pass when every entry will be visited,
    // lazily when an index filters them.
    let mut rel_qual = Qualifier::new(rname);
    let mut entry_attrs: Vec<Option<AttrRun>> = vec![None; entries.len()];
    if bound_positions.is_empty() {
        for (ei, (_, rattrs)) in entries.iter().enumerate() {
            let mut attrs = Vec::new();
            rel_qual.qualify(rattrs, &mut attrs)?;
            entry_attrs[ei] = Some(Arc::from(attrs));
        }
    }

    let cfg = ParConfig::from_env();
    if cfg.should_parallelize(rows.len()) {
        // Probing is pure per-row work over read-only state (index, entry
        // table, participant relations), so chunk the working rows across
        // threads; concatenating the chunk outputs in order reproduces the
        // sequential row order exactly. Entry attrs pre-qualified in the
        // visit-everything case are shared read-only; when an index
        // filters, each chunk memoizes lazily (like the sequential path —
        // unmatched entries are never qualified, just at worst once per
        // chunk instead of once).
        let entry_attrs = entry_attrs; // frozen, shared across chunks
        let chunk_outputs = par_map_chunks(&rows, cfg.threads, |chunk| -> Result<Vec<JoinRow>> {
            let mut w = Worker::new(&parts);
            let mut out = Vec::with_capacity(chunk.len());
            let mut rel_qual = Qualifier::new(rname);
            let mut local_attrs: FxHashMap<usize, AttrRun> = FxHashMap::default();
            let mut get_attrs = |ei: usize| -> Result<AttrRun> {
                if let Some(a) = &entry_attrs[ei] {
                    return Ok(a.clone());
                }
                if let Some(a) = local_attrs.get(&ei) {
                    return Ok(a.clone());
                }
                let (_, rattrs) = &entries[ei];
                let mut attrs = Vec::new();
                rel_qual.qualify(rattrs, &mut attrs)?;
                let a: AttrRun = Arc::from(attrs);
                local_attrs.insert(ei, a.clone());
                Ok(a)
            };
            for row in chunk {
                let Some(matches) = matches_for(
                    row,
                    &bound_positions,
                    &parts,
                    &all_entries,
                    &index,
                    &probe_key,
                ) else {
                    continue;
                };
                emit_rows_for(
                    row,
                    matches,
                    &entries,
                    &parts,
                    &unbound_positions,
                    &key_names,
                    need_bound,
                    &mut get_attrs,
                    &mut w,
                    &mut out,
                )?;
            }
            Ok(out)
        });
        let mut next = Vec::new();
        for out in chunk_outputs {
            next.extend(out?);
        }
        return Ok(next);
    }

    // Sequential path. Upper bound for the unfiltered case; later
    // relationships grow on demand.
    let mut next = Vec::with_capacity(if bound_positions.is_empty() {
        entries.len()
    } else {
        rows.len()
    });
    let mut w = Worker::new(&parts);
    for row in &rows {
        let Some(matches) = matches_for(
            row,
            &bound_positions,
            &parts,
            &all_entries,
            &index,
            &probe_key,
        ) else {
            continue;
        };
        let mut get_attrs = |ei: usize| -> Result<AttrRun> {
            match &entry_attrs[ei] {
                Some(a) => Ok(a.clone()),
                None => {
                    let (_, rattrs) = &entries[ei];
                    let mut attrs = Vec::new();
                    rel_qual.qualify(rattrs, &mut attrs)?;
                    let a: AttrRun = Arc::from(attrs);
                    entry_attrs[ei] = Some(a.clone());
                    Ok(a)
                }
            }
        };
        emit_rows_for(
            row,
            matches,
            &entries,
            &parts,
            &unbound_positions,
            &key_names,
            need_bound,
            &mut get_attrs,
            &mut w,
            &mut next,
        )?;
    }
    Ok(next)
}

/// Joins relations by explicit equi-conditions (Fig. 6, second costume),
/// left-to-right with a `HashMap` index built over each newly joined side's
/// attribute.
pub fn join_on(db: &DatabaseF, conditions: &[JoinOn]) -> Result<RelationF> {
    if conditions.is_empty() {
        return Err(FdmError::Other("join_on: no conditions given".to_string()));
    }
    // working rows: qualified attrs + set of bound relation names
    let mut bound: Vec<Name> = Vec::new();
    let mut rows: Vec<Vec<(Name, Value)>> = Vec::new();

    // seed with the first condition's left relation (keys inlined so
    // conditions may reference key attributes like `customers.cid`)
    let first = &conditions[0];
    let left = crate::filter::with_inlined_keys(db.relation(&first.left_rel)?.as_ref())?;
    let mut left_qual = Qualifier::new(&first.left_rel);
    for (_, t) in left.tuples()? {
        let mut attrs = Vec::new();
        left_qual.qualify(&t, &mut attrs)?;
        rows.push(attrs);
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
            let lq = Name::from(format!("{}.{}", cond.left_rel, cond.left_attr).as_str());
            let rq = Name::from(format!("{}.{}", cond.right_rel, cond.right_attr).as_str());
            rows.retain(|attrs| {
                let l = attrs.iter().find(|(n, _)| *n == lq).map(|(_, v)| v);
                let r = attrs.iter().find(|(n, _)| *n == rq).map(|(_, v)| v);
                matches!((l, r), (Some(a), Some(b)) if a == b)
            });
            continue;
        }
        // hash-build the new side by its join attribute (keys inlined),
        // qualifying each build tuple once — probe hits just clone the
        // prepared attribute run
        let build_src = db.relation(build_rel)?;
        let build = crate::filter::with_inlined_keys(build_src.as_ref())?;
        let mut build_qual = Qualifier::new(build_rel);
        // pre-size the hash table from the stats layer's distinct-count
        // *hint* — the table holds one entry per distinct join-attribute
        // value, not one per row (exact for key/unique attrs). The hint
        // is read off the database's own relation value (same rows, same
        // distinct counts as the inlined working copy — whose caches are
        // always fresh-empty) so it can see sketches a planner already
        // computed there; it never triggers the O(n) sketch build itself,
        // because a capacity guess is not worth an analyze scan per join.
        let mut table: FxHashMap<Value, Vec<AttrRun>> = FxHashMap::with_capacity_and_hasher(
            fdm_core::distinct_hint(&build_src, build_attr),
            Default::default(),
        );
        for (_, t) in build.tuples()? {
            let mut attrs = Vec::new();
            build_qual.qualify(&t, &mut attrs)?;
            table
                .entry(t.get(build_attr)?)
                .or_default()
                .push(Arc::from(attrs));
        }
        let probe_q = Name::from(format!("{probe_rel}.{probe_attr}").as_str());
        let probe_rows = |chunk: &[Vec<(Name, Value)>]| {
            let mut out = Vec::with_capacity(chunk.len());
            for attrs in chunk {
                let Some((_, pv)) = attrs.iter().find(|(n, _)| *n == probe_q) else {
                    continue;
                };
                if let Some(matches) = table.get(pv) {
                    for t in matches {
                        let mut merged = attrs.clone();
                        merged.extend(t.iter().cloned());
                        out.push(merged);
                    }
                }
            }
            out
        };
        // The probe side is pure per-row work against the read-only hash
        // table — chunk it across threads on large inputs; chunk outputs
        // concatenate back in row order.
        let cfg = ParConfig::from_env();
        rows = if cfg.should_parallelize(rows.len()) {
            par_map_chunks(&rows, cfg.threads, probe_rows)
                .into_iter()
                .flatten()
                .collect()
        } else {
            probe_rows(&rows)
        };
        bound.push(Name::from(build_rel.as_str()));
    }

    rows_to_relation(rows)
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
