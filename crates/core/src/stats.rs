//! Cardinality and fan-out statistics for cost-based operator planning.
//!
//! FQL's schema-driven `join` must decide **which relationship function to
//! bind next**. Picking by raw entry count (the PR 2 heuristic) ignores
//! participant fan-out: a relationship with many entries but one entry per
//! bound key (fan-out 1) extends the working rows without growing them,
//! while a small relationship whose entries pile onto few keys multiplies
//! the row set. This module provides the statistics that distinguish the
//! two, cheaply enough to consult on every operator call.
//!
//! # What is tracked
//!
//! * **Per relation** — the stored cardinality ([`RelationStats::rows`]),
//!   and a distinct-count estimate for a named attribute
//!   ([`estimate_distinct`]): exact for key attributes and single-attribute
//!   `Unique` constraints (both imply one distinct value per row), a
//!   [`DistinctSketch`] estimate for every other attribute of an
//!   enumerable stored body (see [`AttrSketches`]), and a documented magic
//!   fraction only on the one remaining path — bodies with no enumerable
//!   stored part, or attributes absent from every stored tuple.
//! * **Per relationship** — the entry count, for every participant
//!   position the exact number of **distinct key values** appearing there
//!   ([`RelationshipStats::distinct`]), and a constant-memory
//!   [`DistinctSketch`] per position ([`RelationshipStats::sketch`]).
//!   Average fan-out falls out as `entries / distinct`
//!   ([`RelationshipStats::avg_fanout`]).
//!
//! # The cost formula
//!
//! [`RelationshipStats::estimate_join_rows`] estimates the working-row
//! count after binding a relationship, given `bound_rows` current rows and
//! the participant positions already bound:
//!
//! ```text
//! no position bound:   est = bound_rows × entries
//! positions B bound:   est = bound_rows × entries / min(entries, max_{p∈B} distinct(p))
//! ```
//!
//! i.e. each row probes the relationship through its bound keys and
//! matches `entries / distinct` entries on average (uniformity assumption;
//! with several bound positions the distinct count of the *combination* is
//! at least the per-position maximum, so the maximum gives a conservative
//! upper estimate of the fan-out). The estimate is a planning heuristic
//! only — plan choice never changes which rows a join produces, just the
//! order work happens in (pinned by `tests/tests/join_planning.rs`).
//!
//! # The distinct-count sketches
//!
//! [`DistinctSketch`] is a HyperLogLog-style cardinality estimator over a
//! fixed array of 2^10 = 1024 registers (one KiB, no heap allocation on
//! the observe path). Its standard error is `1.04 / √1024 ≈ 3.25%`; the
//! bound this crate *documents and tests against* is the ~3σ envelope
//! [`DistinctSketch::RELATIVE_ERROR_BOUND`] (10%). Observations are
//! **insert-monotone**: a sketch never forgets a value, so after a
//! removal it over-estimates — which is why every consumer clamps the
//! estimate to the current row/entry count, keeping it a sound upper
//! bound at all times.
//!
//! # Staleness and update rules
//!
//! Relationship statistics live **inside** [`RelationshipF`] and follow
//! the same freshness-by-construction contract as the tuple fingerprint
//! cache (`fdm_core::tuple`): every construction and mutation path builds
//! the matching statistics in the same expression that builds the entry
//! map —
//!
//! * `RelationshipF::new` starts with [`RelationshipStats::empty`];
//! * `insert`/`insert_link` advance them with [`RelationshipStats::with_inserted`];
//! * `remove` reverses with [`RelationshipStats::with_removed`] (the exact
//!   count maps reverse; the sketches, being insert-monotone, are carried
//!   over unchanged and stay a documented upper bound);
//! * the bulk paths (`RelationshipF::from_sorted`, `RelationshipBuilder`)
//!   count everything in one pass via [`RelationshipStats::from_entries`] —
//!   producing **register-identical** sketches to the equivalent insert
//!   chain (HyperLogLog merges are order-insensitive maxima).
//!
//! There is no code path that changes the entry map while keeping the old
//! statistics, so stale stats are impossible by design; the per-position
//! count maps are persistent (`PMap`), so snapshots share them like they
//! share the entries. [`RelationStats`] is computed on demand from the
//! relation's O(1) length — nothing to keep fresh.
//!
//! Relation-side attribute sketches ([`AttrSketches`]) use the *other*
//! freshness-by-construction discipline, the one the tuple fingerprint
//! cache pioneered: they live in a `OnceLock` inside `RelationF` that
//! every construction and mutation path starts **fresh and empty**, and
//! are computed lazily from the stored tuples' cached fingerprints on the
//! first [`estimate_distinct`] call. Relations cannot maintain sketches
//! incrementally the way relationships do — deletes and upserts are
//! first-class relation mutations, and HyperLogLog cannot subtract — so
//! the lazy rebuild is the only design whose estimates stay *exact-fresh*
//! under deletion. The O(n) scan is paid once per relation value and
//! amortized across every later planner call (and it warms the per-tuple
//! fingerprint caches the set operations consume, so the scan is not even
//! wasted work).
//!
//! [`RelationshipF`]: crate::RelationshipF

use crate::constraint::Constraint;
use crate::error::Name;
use crate::fxhash::FxHashMap;
use crate::relation::RelationF;
use crate::tuple::TupleF;
use crate::value::Value;
use fdm_storage::PMap;
use std::sync::Arc;

/// Cardinality statistics of a relation function, read on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelationStats {
    /// Number of stored tuples (computed parts are not counted — they are
    /// not enumerable in general, so no planner should rely on them).
    pub rows: usize,
}

impl RelationStats {
    /// Reads the statistics of `rel` (O(1): the persistent map tracks its
    /// length).
    pub fn of(rel: &RelationF) -> RelationStats {
        RelationStats { rows: rel.len() }
    }
}

/// Number of HyperLogLog registers in a [`DistinctSketch`]: fixed at
/// 2^10, i.e. one byte-register per bucket, 1 KiB per sketch.
pub const SKETCH_REGISTERS: usize = 1 << SKETCH_INDEX_BITS;

/// Number of hash bits consumed as the register index (the `b` in
/// HyperLogLog's `m = 2^b`).
const SKETCH_INDEX_BITS: u32 = 10;

/// A HyperLogLog-style distinct-count estimator over a fixed
/// [`SKETCH_REGISTERS`]-byte register array.
///
/// Observing a value hashes it (64-bit), uses the top 10 bits as the
/// register index and the position of
/// the first set bit of the rest as the register candidate — registers
/// keep the **maximum** ever seen, which makes sketches insert-monotone
/// and merge/order-insensitive: any sequence (or partition) of the same
/// value multiset produces register-identical sketches. No heap
/// allocation happens on the observe path.
///
/// # Accuracy
///
/// The estimator's standard error is `1.04 / √1024 ≈ 3.25%`; callers
/// should budget for [`Self::RELATIVE_ERROR_BOUND`] (10%, ~3σ), the bound
/// the test suite pins across 1k/20k loads. Small cardinalities fall back
/// to linear counting, which is near-exact.
///
/// # Examples
///
/// ```
/// use fdm_core::{DistinctSketch, Value};
///
/// let mut s = DistinctSketch::new();
/// for i in 0..1000 {
///     s.observe(&Value::Int(i % 250)); // 250 distinct values, seen 4× each
/// }
/// let est = s.estimate() as f64;
/// assert!((est - 250.0).abs() / 250.0 < DistinctSketch::RELATIVE_ERROR_BOUND);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DistinctSketch {
    regs: [u8; SKETCH_REGISTERS],
}

impl Default for DistinctSketch {
    fn default() -> Self {
        DistinctSketch::new()
    }
}

impl std::fmt::Debug for DistinctSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DistinctSketch(~{} distinct)", self.estimate())
    }
}

impl DistinctSketch {
    /// The documented relative error bound (`|estimate − exact| / exact`)
    /// the estimator is tested to stay within across the 1k and 20k
    /// loads: 10%, roughly 3σ of the theoretical 3.25% standard error.
    pub const RELATIVE_ERROR_BOUND: f64 = 0.10;

    /// An empty sketch (estimates 0).
    pub fn new() -> DistinctSketch {
        DistinctSketch {
            regs: [0; SKETCH_REGISTERS],
        }
    }

    /// `true` if nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.regs.iter().all(|&r| r == 0)
    }

    /// Hashes `v` ([`Value::fx_hash`], which honors its cross-type numeric
    /// `Eq`) and feeds it to the registers. Equal values always land on
    /// the same register with the same candidate, so duplicates never move
    /// the estimate.
    #[inline]
    pub fn observe(&mut self, v: &Value) {
        self.observe_hash(v.fx_hash());
    }

    /// Feeds an already-computed 64-bit value hash to the registers.
    #[inline]
    pub fn observe_hash(&mut self, h: u64) {
        let (idx, rank) = Self::register_for(h);
        if self.regs[idx] < rank {
            self.regs[idx] = rank;
        }
    }

    /// The register update `observe` would perform, as a persistent
    /// operation: `None` when the observation changes nothing (the
    /// steady-state common case — the caller keeps sharing the old
    /// sketch), otherwise the updated copy (one 1 KiB stack copy, no heap
    /// allocation).
    pub fn with_observed(&self, v: &Value) -> Option<DistinctSketch> {
        let (idx, rank) = Self::register_for(v.fx_hash());
        if self.regs[idx] >= rank {
            return None;
        }
        let mut next = self.clone();
        next.regs[idx] = rank;
        Some(next)
    }

    /// Folds `other` into `self` (register-wise maximum) — the union of
    /// the observed multisets. Merging is associative, commutative, and
    /// idempotent, which is what makes bulk and incremental maintenance
    /// register-identical.
    pub fn merge_from(&mut self, other: &DistinctSketch) {
        for (a, b) in self.regs.iter_mut().zip(other.regs.iter()) {
            if *a < *b {
                *a = *b;
            }
        }
    }

    /// The estimated number of distinct observed values.
    ///
    /// Standard HyperLogLog with the small-range linear-counting
    /// correction; accurate to [`Self::RELATIVE_ERROR_BOUND`] (see the
    /// type docs). Estimates steer cost decisions only — they never
    /// change what any operator produces.
    pub fn estimate(&self) -> usize {
        let m = SKETCH_REGISTERS as f64;
        let mut sum = 0.0f64;
        let mut zeros = 0usize;
        for &r in &self.regs {
            // 2^-r in floating point — ranks go up to 55, past any
            // integer shift width
            sum += (-f64::from(r)).exp2();
            if r == 0 {
                zeros += 1;
            }
        }
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let raw = alpha * m * m / sum;
        let corrected = if raw <= 2.5 * m && zeros > 0 {
            // linear counting: near-exact at small cardinalities
            m * (m / zeros as f64).ln()
        } else {
            raw
        };
        corrected.round() as usize
    }

    /// Splits a hash into (register index, rank candidate).
    #[inline]
    fn register_for(h: u64) -> (usize, u8) {
        // splitmix64 (the shared `fdm_storage` finalizer): the raw FxHash
        // of sequential keys is too regular for HLL's "first set bit"
        // statistic; one multiply-xor avalanche restores bit uniformity
        // at negligible cost.
        let z = fdm_storage::splitmix64(h);
        let idx = (z >> (64 - SKETCH_INDEX_BITS)) as usize;
        let rest = z << SKETCH_INDEX_BITS;
        let rank = (rest.leading_zeros() + 1).min(64 - SKETCH_INDEX_BITS + 1) as u8;
        (idx, rank)
    }
}

/// Per-attribute [`DistinctSketch`]es over a relation's stored tuples —
/// the statistics behind [`estimate_distinct`] for non-key attributes.
///
/// Built in one pass over the stored tuples' materialized values, so
/// every attribute a tuple answers for — stored *or* computed — is
/// sketched under its name. Tuples that fail to materialize (a failing
/// computed attribute) are skipped; their attributes simply do not
/// contribute.
///
/// Instances live in a `OnceLock` inside `RelationF` under the
/// freshness-by-construction contract (see the module docs): every
/// relation mutation starts a fresh empty cell, so a filled `AttrSketches`
/// always describes exactly the tuples of the relation value that carries
/// it.
///
/// # Examples
///
/// ```
/// use fdm_core::{DistinctSketch, RelationBuilder, TupleF, Value};
///
/// let mut b = RelationBuilder::new("people", &["id"]);
/// for i in 0..100i64 {
///     b.push(
///         Value::Int(i),
///         TupleF::builder("p").attr("city", format!("c{}", i % 7)).build(),
///     );
/// }
/// let rel = b.build().unwrap();
/// let sketch = rel.attr_sketches().get("city").unwrap();
/// let est = sketch.estimate() as f64;
/// assert!((est - 7.0).abs() / 7.0 < DistinctSketch::RELATIVE_ERROR_BOUND);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AttrSketches {
    /// Sorted by attribute name; a relation has a handful of attributes,
    /// so binary search beats hashing and keeps iteration deterministic.
    by_attr: Vec<(Name, DistinctSketch)>,
}

impl AttrSketches {
    /// Sketches every attribute appearing in the given stored tuples.
    pub fn from_stored(tuples: impl Iterator<Item = (Value, Arc<TupleF>)>) -> AttrSketches {
        let mut map: FxHashMap<Name, DistinctSketch> = FxHashMap::default();
        let mut values = Vec::new();
        for (_, tuple) in tuples {
            values.clear();
            if tuple.values_into(&mut values).is_err() {
                continue; // failing computed attribute: tuple contributes nothing
            }
            for (name, v) in tuple.attr_names().zip(&values) {
                map.entry(name.clone()).or_default().observe(v);
            }
        }
        let mut by_attr: Vec<(Name, DistinctSketch)> = map.into_iter().collect();
        by_attr.sort_by(|a, b| a.0.cmp(&b.0));
        AttrSketches { by_attr }
    }

    /// The sketch for `attr`, if any stored tuple carries that attribute.
    pub fn get(&self, attr: &str) -> Option<&DistinctSketch> {
        self.by_attr
            .binary_search_by(|(n, _)| n.as_ref().cmp(attr))
            .ok()
            .map(|i| &self.by_attr[i].1)
    }

    /// Number of sketched attributes.
    pub fn attr_count(&self) -> usize {
        self.by_attr.len()
    }

    /// `true` if no attribute was sketched (empty relation, or no stored
    /// part).
    pub fn is_empty(&self) -> bool {
        self.by_attr.is_empty()
    }
}

/// The distinct-value fraction assumed for attributes with no exact
/// source **and no sketch**: `distinct ≈ rows / 10`. A deliberate,
/// documented magic number in the System-R tradition — wrong in general,
/// but it only biases *cost estimates*, never results.
///
/// Since the [`DistinctSketch`] layer landed, exactly one path still uses
/// it (see [`estimate_distinct`]): relations whose stored part is empty
/// or non-enumerable (fully computed bodies), or an attribute no stored
/// tuple answers for. Every enumerable stored attribute gets a real
/// sketch estimate instead.
pub const DEFAULT_DISTINCT_FRACTION: usize = 10;

/// The fraction of rows a predicate of unknown selectivity is assumed to
/// keep (the System-R 1/3). Used by `fql`'s plan-cost estimator; like
/// every number in this module it steers cost, never results.
pub const DEFAULT_FILTER_SELECTIVITY: f64 = 1.0 / 3.0;

/// `true` when the schema already answers the distinct count exactly:
/// key attributes and single-attribute `Unique` constraints both imply
/// one distinct value per row.
fn schema_exact(rel: &RelationF, attr: &str) -> bool {
    rel.key_attrs().iter().any(|k| k.as_ref() == attr)
        || rel.constraints().iter().any(
            |c| matches!(c, Constraint::Unique(attrs) if attrs.len() == 1 && attrs[0].as_ref() == attr),
        )
}

/// Estimate of the number of distinct values attribute `attr` takes
/// across the stored tuples of `rel`:
///
/// * a key attribute or a single-attribute `Unique` constraint → exactly
///   `rel.len()` (one distinct value per row), O(1);
/// * any attribute some stored tuple answers for → the relation's
///   [`AttrSketches`] estimate, clamped to `[1, rows]` (a sketch is
///   insert-monotone and may overshoot the live row count; it can never
///   legitimately exceed it). The sketches are computed **once per
///   relation value** on first use — an O(n) scan amortized across every
///   later call on the same value (see the module docs) — so this
///   function is the *planner's* entry point, not a per-probe hint: for
///   per-probe capacity hints use [`distinct_hint`], which never triggers
///   the scan;
/// * otherwise (no enumerable stored part, or the attribute appears in no
///   stored tuple) → `max(1, rows / `[`DEFAULT_DISTINCT_FRACTION`]`)`,
///   the one surviving magic-fraction path.
///
/// # Examples
///
/// ```
/// use fdm_core::{estimate_distinct, RelationBuilder, TupleF, Value};
///
/// let mut b = RelationBuilder::new("orders", &["oid"]);
/// for i in 0..200i64 {
///     b.push(
///         Value::Int(i),
///         TupleF::builder("o").attr("cid", i % 40).build(),
///     );
/// }
/// let rel = b.build().unwrap();
/// assert_eq!(estimate_distinct(&rel, "oid"), 200, "key attr: exact");
/// let est = estimate_distinct(&rel, "cid") as f64; // non-key: sketched
/// assert!((est - 40.0).abs() / 40.0 < fdm_core::DistinctSketch::RELATIVE_ERROR_BOUND);
/// ```
pub fn estimate_distinct(rel: &RelationF, attr: &str) -> usize {
    let rows = rel.len();
    if rows == 0 {
        return 0;
    }
    if schema_exact(rel, attr) {
        return rows;
    }
    if let Some(sketch) = rel.attr_sketches().get(attr) {
        return sketch.estimate().clamp(1, rows);
    }
    (rows / DEFAULT_DISTINCT_FRACTION).max(1)
}

/// Strictly-O(1) variant of [`estimate_distinct`] for hot paths that only
/// want a capacity *hint*: consults the schema and any **already
/// computed** sketches, but never triggers the O(n) sketch build —
/// falling back to the magic fraction instead. `fql`'s `join_on` uses
/// this to pre-size its probe tables without paying an analyze scan per
/// join.
pub fn distinct_hint(rel: &RelationF, attr: &str) -> usize {
    let rows = rel.len();
    if rows == 0 {
        return 0;
    }
    if schema_exact(rel, attr) {
        return rows;
    }
    if let Some(sketch) = rel.attr_sketches_cached().and_then(|s| s.get(attr)) {
        return sketch.estimate().clamp(1, rows);
    }
    (rows / DEFAULT_DISTINCT_FRACTION).max(1)
}

/// Per-relationship cardinality and fan-out statistics, maintained
/// incrementally by every [`RelationshipF`](crate::RelationshipF)
/// construction and mutation path (see the module docs for the freshness
/// contract).
///
/// Internally one persistent count map per participant position: key value
/// → number of entries carrying it. Distinct counts are the map lengths;
/// the maps are needed (rather than bare counters) so `remove` can tell a
/// "last entry of this key" decrement from an ordinary one. Each position
/// additionally carries a [`DistinctSketch`] — redundant next to the
/// exact maps, but O(1) memory and mergeable, so it is the summary a
/// consumer can export, combine across relationships, or cross-check the
/// maps against (the accuracy tests do exactly that).
#[derive(Clone, Debug)]
pub struct RelationshipStats {
    entries: usize,
    counts: Arc<[PMap<Value, usize>]>,
    /// One sketch per position, `Arc`-shared so the steady-state insert
    /// (register unchanged) is a pointer copy, not a 1 KiB memcpy.
    sketches: Arc<[Arc<DistinctSketch>]>,
}

impl RelationshipStats {
    /// Statistics of an empty k-ary relationship.
    pub fn empty(k: usize) -> RelationshipStats {
        let empty_sketch = Arc::new(DistinctSketch::new());
        RelationshipStats {
            entries: 0,
            counts: (0..k).map(|_| PMap::new()).collect::<Vec<_>>().into(),
            sketches: (0..k)
                .map(|_| empty_sketch.clone())
                .collect::<Vec<_>>()
                .into(),
        }
    }

    /// Bulk-counts statistics from entry argument lists in one pass
    /// (the `from_sorted` companion): per position, keys are collected,
    /// sorted, and run-length counted into an O(n) bulk map build; the
    /// sketches observe every key in the same pass and come out
    /// register-identical to the equivalent insert chain.
    pub fn from_entries<'a>(k: usize, entries: impl Iterator<Item = &'a [Value]> + Clone) -> Self {
        let total = entries.clone().count();
        let mut counts = Vec::with_capacity(k);
        let mut sketches = Vec::with_capacity(k);
        for pos in 0..k {
            let mut sketch = DistinctSketch::new();
            let mut keys: Vec<Value> = entries
                .clone()
                .filter_map(|args| args.get(pos).cloned())
                .collect();
            for key in &keys {
                sketch.observe(key);
            }
            keys.sort();
            let mut runs: Vec<(Value, usize)> = Vec::new();
            for key in keys {
                match runs.last_mut() {
                    Some((last, n)) if *last == key => *n += 1,
                    _ => runs.push((key, 1)),
                }
            }
            counts.push(PMap::from_sorted_vec(runs));
            sketches.push(Arc::new(sketch));
        }
        RelationshipStats {
            entries: total,
            counts: counts.into(),
            sketches: sketches.into(),
        }
    }

    /// Number of stored relationship entries.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Number of distinct key values at participant position `pos` —
    /// **exact**, from the persistent count map.
    pub fn distinct(&self, pos: usize) -> usize {
        self.counts.get(pos).map_or(0, PMap::len)
    }

    /// The distinct key values at participant position `pos`, ascending —
    /// exactly the keys some entry carries there, read off the count map
    /// (empty for a position the relationship does not have).
    pub fn keys_at(&self, pos: usize) -> impl Iterator<Item = &Value> + '_ {
        self.counts.get(pos).into_iter().flat_map(PMap::keys)
    }

    /// The distinct-count sketch for participant position `pos` — the
    /// O(1)-memory summary maintained alongside the exact count maps.
    /// Insert-monotone: after removals it may over-count (see the module
    /// docs), which is why [`Self::distinct_estimate`] clamps.
    pub fn sketch(&self, pos: usize) -> Option<&DistinctSketch> {
        self.sketches.get(pos).map(|s| s.as_ref())
    }

    /// The sketch-based distinct estimate at position `pos`, clamped to
    /// `[1, entries]` (0 when empty) so it stays sound after removals.
    /// Within [`DistinctSketch::RELATIVE_ERROR_BOUND`] of
    /// [`Self::distinct`] on insert-only histories (pinned by the sketch
    /// accuracy tests).
    pub fn distinct_estimate(&self, pos: usize) -> usize {
        if self.entries == 0 {
            return 0;
        }
        self.sketch(pos)
            .map_or(0, DistinctSketch::estimate)
            .clamp(1, self.entries)
    }

    /// Average entries per distinct key at position `pos` (0.0 when
    /// empty) — how many entries a bound key matches on average.
    pub fn avg_fanout(&self, pos: usize) -> f64 {
        let d = self.distinct(pos);
        if d == 0 {
            0.0
        } else {
            self.entries as f64 / d as f64
        }
    }

    /// The statistics after inserting an entry with these argument values
    /// (persistent: the receiver is unchanged). Each position's sketch
    /// observes its key; an observation that changes no register — the
    /// steady state once the registers saturate — shares the old sketch
    /// instead of copying it.
    pub fn with_inserted(&self, args: &[Value]) -> RelationshipStats {
        let counts: Vec<PMap<Value, usize>> = self
            .counts
            .iter()
            .zip(args)
            .map(|(m, v)| {
                let n = m.get(v).copied().unwrap_or(0);
                m.insert(v.clone(), n + 1).0
            })
            .collect();
        let sketches: Vec<Arc<DistinctSketch>> = self
            .sketches
            .iter()
            .zip(args)
            .map(|(s, v)| match s.with_observed(v) {
                Some(next) => Arc::new(next),
                None => s.clone(),
            })
            .collect();
        RelationshipStats {
            entries: self.entries + 1,
            counts: counts.into(),
            sketches: sketches.into(),
        }
    }

    /// The statistics after removing an entry with these argument values
    /// (persistent: the receiver is unchanged). The exact count maps
    /// reverse; the sketches are insert-monotone and carried over as-is —
    /// an upper bound consumers clamp (see [`Self::distinct_estimate`]).
    pub fn with_removed(&self, args: &[Value]) -> RelationshipStats {
        let counts: Vec<PMap<Value, usize>> = self
            .counts
            .iter()
            .zip(args)
            .map(|(m, v)| match m.get(v).copied() {
                Some(n) if n > 1 => m.insert(v.clone(), n - 1).0,
                Some(_) => m.remove(v).0,
                None => m.clone(),
            })
            .collect();
        RelationshipStats {
            entries: self.entries.saturating_sub(1),
            counts: counts.into(),
            sketches: self.sketches.clone(),
        }
    }

    /// Estimated working-row count after binding this relationship from
    /// `bound_rows` current rows with the given participant positions
    /// already bound — the module-level cost formula. With nothing bound
    /// the relationship is a generator: every row pairs with every entry.
    pub fn estimate_join_rows(&self, bound_rows: usize, bound_positions: &[usize]) -> f64 {
        if self.entries == 0 {
            return 0.0;
        }
        let rows = bound_rows as f64;
        let entries = self.entries as f64;
        let max_distinct = bound_positions
            .iter()
            .map(|&p| self.distinct(p))
            .max()
            .unwrap_or(0);
        if max_distinct == 0 {
            rows * entries
        } else {
            rows * entries / (max_distinct.min(self.entries) as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::tuple::TupleF;

    fn args(a: i64, b: i64) -> Vec<Value> {
        vec![Value::Int(a), Value::Int(b)]
    }

    /// Register-identity regression for the splitmix64 deduplication:
    /// `register_for` must place every hash in the same register with the
    /// same rank as the pre-refactor private finalizer did, or every
    /// persisted sketch estimate silently shifts.
    #[test]
    fn register_for_is_identical_to_the_inlined_finalizer() {
        fn old_register_for(h: u64) -> (usize, u8) {
            // the removed private copy, verbatim
            let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let idx = (z >> (64 - SKETCH_INDEX_BITS)) as usize;
            let rest = z << SKETCH_INDEX_BITS;
            let rank = (rest.leading_zeros() + 1).min(64 - SKETCH_INDEX_BITS + 1) as u8;
            (idx, rank)
        }
        for h in (0u64..10_000).chain([u64::MAX, 0xFD17, 0xDEAD_BEEF]) {
            assert_eq!(
                DistinctSketch::register_for(h),
                old_register_for(h),
                "register divergence at hash {h:#x}"
            );
        }
    }

    #[test]
    fn incremental_counts_match_bulk() {
        let entries = [args(1, 7), args(1, 8), args(2, 7), args(3, 9)];
        let mut inc = RelationshipStats::empty(2);
        for e in &entries {
            inc = inc.with_inserted(e);
        }
        let bulk = RelationshipStats::from_entries(2, entries.iter().map(Vec::as_slice));
        assert_eq!(inc.entries(), 4);
        assert_eq!(bulk.entries(), 4);
        for pos in 0..2 {
            assert_eq!(inc.distinct(pos), bulk.distinct(pos), "position {pos}");
        }
        assert_eq!(inc.distinct(0), 3, "cids 1, 2, 3");
        assert_eq!(inc.distinct(1), 3, "pids 7, 8, 9");
    }

    #[test]
    fn remove_reverses_insert() {
        let s = RelationshipStats::empty(2)
            .with_inserted(&args(1, 7))
            .with_inserted(&args(1, 8));
        assert_eq!(s.distinct(0), 1);
        let s2 = s.with_removed(&args(1, 8));
        assert_eq!(s2.entries(), 1);
        assert_eq!(s2.distinct(0), 1, "key 1 still present once");
        assert_eq!(s2.distinct(1), 1, "pid 8 gone");
        let s3 = s2.with_removed(&args(1, 7));
        assert_eq!(s3.entries(), 0);
        assert_eq!(s3.distinct(0), 0);
    }

    #[test]
    fn fanout_and_estimates() {
        // 6 entries over 3 distinct cids (fan-out 2), 6 distinct pids
        // (fan-out 1)
        let mut s = RelationshipStats::empty(2);
        for (c, p) in [(1, 1), (1, 2), (2, 3), (2, 4), (3, 5), (3, 6)] {
            s = s.with_inserted(&args(c, p));
        }
        assert_eq!(s.avg_fanout(0), 2.0);
        assert_eq!(s.avg_fanout(1), 1.0);
        // 100 rows bound on position 0: each matches ~2 entries
        assert_eq!(s.estimate_join_rows(100, &[0]), 200.0);
        // bound on position 1: fan-out 1
        assert_eq!(s.estimate_join_rows(100, &[1]), 100.0);
        // both bound: the larger distinct count wins (combination is at
        // least as selective)
        assert_eq!(s.estimate_join_rows(100, &[0, 1]), 100.0);
        // nothing bound: generator
        assert_eq!(s.estimate_join_rows(10, &[]), 60.0);
        // empty stats estimate zero
        assert_eq!(RelationshipStats::empty(2).estimate_join_rows(5, &[0]), 0.0);
    }

    #[test]
    fn relation_stats_and_distinct_estimates() {
        let rel = RelationF::new("r", &["id"])
            .insert(
                Value::Int(1),
                TupleF::builder("t").attr("name", "a").attr("x", 1).build(),
            )
            .unwrap()
            .insert(
                Value::Int(2),
                TupleF::builder("t").attr("name", "b").attr("x", 1).build(),
            )
            .unwrap();
        assert_eq!(RelationStats::of(&rel).rows, 2);
        // key attribute: exact
        assert_eq!(estimate_distinct(&rel, "id"), 2);
        // unconstrained attribute: sketched — both tuples share x=1
        assert_eq!(estimate_distinct(&rel, "x"), 1);
        // ...and the names differ, so `name` sketches to 2
        assert_eq!(estimate_distinct(&rel, "name"), 2);
        // an attribute no tuple carries: the one remaining fraction path
        assert_eq!(estimate_distinct(&rel, "ghost"), 1, "rows/10 floored");
        // unique constraint: exact
        let uniq = rel.with_constraint(Constraint::unique(&["name"])).unwrap();
        assert_eq!(estimate_distinct(&uniq, "name"), 2);
        // empty relation
        assert_eq!(estimate_distinct(&RelationF::new("e", &["id"]), "id"), 0);
    }

    #[test]
    fn sketch_estimates_within_documented_bound() {
        let mut s = DistinctSketch::new();
        for d in [1usize, 10, 500, 5_000] {
            for i in 0..(d * 3) {
                s.observe(&Value::Int((i % d) as i64));
            }
            let est = s.estimate() as f64;
            let err = (est - d as f64).abs() / d as f64;
            assert!(
                err < DistinctSketch::RELATIVE_ERROR_BOUND,
                "d={d}: estimate {est} off by {err:.3}"
            );
            s = DistinctSketch::new();
        }
    }

    #[test]
    fn sketch_estimate_handles_maximal_register_ranks() {
        // a rank at the 55 cap (probability ~2^-54 per observation, but
        // guaranteed eventually at scale) must not overflow the 2^-r
        // term — regression for a debug-mode `1u32 << 55` panic
        let mut s = DistinctSketch::new();
        s.regs[0] = 55;
        s.regs[1] = 32;
        let est = s.estimate();
        assert!(est >= 1, "near-empty sketch with two hot registers: {est}");
        // and a saturated sketch still produces a finite estimate
        let full = DistinctSketch {
            regs: [55; SKETCH_REGISTERS],
        };
        assert!(full.estimate() > 0);
    }

    #[test]
    fn sketch_is_order_insensitive_and_mergeable() {
        let vals: Vec<Value> = (0..300).map(|i| Value::Int(i % 77)).collect();
        let mut fwd = DistinctSketch::new();
        let mut rev = DistinctSketch::new();
        for v in &vals {
            fwd.observe(v);
        }
        for v in vals.iter().rev() {
            rev.observe(v);
        }
        assert_eq!(fwd, rev, "register-identical under reordering");
        // split + merge reproduces the whole
        let (a, b) = vals.split_at(150);
        let mut left = DistinctSketch::new();
        let mut right = DistinctSketch::new();
        a.iter().for_each(|v| left.observe(v));
        b.iter().for_each(|v| right.observe(v));
        left.merge_from(&right);
        assert_eq!(left, fwd);
        // duplicates never move a register
        let before = fwd.clone();
        for v in &vals {
            assert!(fwd.with_observed(v).is_none(), "already observed");
        }
        assert_eq!(fwd, before);
    }

    #[test]
    fn relationship_sketches_track_inserts_and_survive_removes() {
        let mut s = RelationshipStats::empty(2);
        for i in 0..200i64 {
            s = s.with_inserted(&args(i % 25, i));
        }
        // sketch vs exact map, both positions
        for pos in 0..2 {
            let exact = s.distinct(pos) as f64;
            let est = s.distinct_estimate(pos) as f64;
            assert!(
                (est - exact).abs() / exact < DistinctSketch::RELATIVE_ERROR_BOUND,
                "pos {pos}: {est} vs {exact}"
            );
        }
        // removal: exact counts reverse, sketch stays (monotone upper
        // bound) but the estimate clamps to the entry count
        let mut removed = s.clone();
        for i in 0..195i64 {
            removed = removed.with_removed(&args(i % 25, i));
        }
        assert_eq!(removed.entries(), 5);
        assert_eq!(removed.sketch(1), s.sketch(1), "sketch never forgets");
        assert!(removed.distinct_estimate(1) <= removed.entries());
    }

    #[test]
    fn bulk_and_incremental_sketches_are_register_identical() {
        let entries: Vec<Vec<Value>> = (0..150).map(|i| args(i % 13, i % 40)).collect();
        let mut inc = RelationshipStats::empty(2);
        for e in &entries {
            inc = inc.with_inserted(e);
        }
        let bulk = RelationshipStats::from_entries(2, entries.iter().map(Vec::as_slice));
        for pos in 0..2 {
            assert_eq!(inc.sketch(pos), bulk.sketch(pos), "position {pos}");
        }
    }
}
