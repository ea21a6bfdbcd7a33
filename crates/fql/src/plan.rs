//! Lazy FQL expressions: logical plans and a small optimizer.
//!
//! Paper §4.2: "the entire FQL expression or any suitable part of it may
//! be pushed down to the database system which can then optimize the
//! expression". [`Query`] is that deferred expression: a tree of operators
//! that *looks* like eager host-language calls but is only executed on
//! [`Query::eval`] — and [`Query::optimize`] / [`Query::optimize_for`]
//! may rewrite it first. Both are thin wrappers over the
//! [`crate::optimizer`] rule engine: constant folding, filter fusion,
//! predicate pushdown, projection pruning, and — with database
//! statistics in hand — join reordering, each an independent
//! [`crate::optimizer::OptimizationRule`] run to fixpoint. Every rule
//! walks the plan through [`Query::map_input`].
//!
//! # Execution
//!
//! [`Query::eval`] lowers the optimized plan onto a small physical layer
//! (`physical.rs`) and runs it: operators exchange value rows, and only
//! the pipeline breakers — `GroupAgg`, `OrderBy`, a join's hash-build
//! side, a join whose row ids are observed — and the plan root build
//! anything; the root builds the one relation a plan returns. A join on
//! the right relation's own key is a lookup in its map — function
//! application — instead of a hash build. `docs/OPTIMIZER.md` describes
//! the physical nodes; the optimization space itself is what the `fig6`
//! ablation bench measures (optimized vs. declared order).
//!
//! # Canonical row ids
//!
//! What makes join reordering *legal* here is the canonical-row-id
//! scheme: a [`Query::Join`] keys each output row by its tuple's cached
//! `DataKey` fingerprint — `[hash, rank]`, where `rank` disambiguates
//! hash collisions by canonical data-key order — instead of by emission
//! order. Row identity is then a function of the row's **data**, not of
//! the order the executor happened to produce it in, so two join orders
//! that produce the same data produce the same keyed relation. Only a
//! join whose keys somebody can observe pays for this — the plan root,
//! or one under `Limit`/`OrderBy`/`GroupAgg`; a join whose rows reach
//! another join through nothing but `Filter`/`Project` is keyed by
//! emission index, which the join above never reads. The ids are opaque:
//! their values changed in PR 13 and again in PR 19 (the hash now
//! continues the shape's name hash with the values). The
//! pinned contract (`tests/tests/plan_reordering.rs`): an optimized plan
//! yields the **same keys** mapping to **data-identical tuples** as the
//! declared plan; only attribute declaration order (and therefore
//! nothing [`fdm_core::TupleF::eq_data`] can see) may reflect the
//! executed order. [`Optimizer::statistics_free`] keeps the declared
//! left-deep order, so it is the reference the reordering tests compare
//! against. See `docs/OPTIMIZER.md` for the full cost model.

use crate::aggregate::AggSpec;
use crate::optimizer::Optimizer;
use crate::physical::Op;
use fdm_core::{DatabaseF, FdmError, RelationF, Result, TupleF, Value};
use fdm_expr::{Expr, Params};
use std::fmt;
use std::sync::Arc;

/// The most operators one plan may chain, its leaf included. Planning,
/// evaluation and view maintenance recurse once per operator, so a
/// deeper plan could overflow the stack: a builder that would pass the
/// limit returns [`Query::Invalid`] instead, and [`Query::eval`],
/// [`Query::eval_with_stats`], [`Query::estimated_rows`] and the
/// optimizer refuse a deeper plan built from the variants directly.
pub const MAX_PLAN_DEPTH: usize = 64;

/// A lazy, optimizable FQL expression producing a relation function.
///
/// # Examples
///
/// ```
/// use fdm_fql::plan::Query;
/// use fdm_fql::testutil::retail_db;
/// use fdm_expr::Params;
///
/// let q = Query::scan("customers")
///     .filter("age > $min", Params::new().set("min", 42))
///     .project(&["name"]);
/// let out = q.optimize().eval(&retail_db()).unwrap();
/// assert_eq!(out.len(), 2);
/// ```
pub enum Query {
    /// Scan a relation entry of the database.
    Scan {
        /// Entry name in the database function.
        rel: String,
    },
    /// Keep tuples satisfying a bound predicate expression.
    Filter {
        /// Input plan.
        input: Box<Query>,
        /// Bound (parameter-free) predicate.
        pred: Expr,
    },
    /// Keep only the named attributes.
    Project {
        /// Input plan.
        input: Box<Query>,
        /// Attributes to keep, in order.
        attrs: Vec<String>,
    },
    /// Left-deep equi-join: extend each input tuple with the matching
    /// tuples of `rel` (attributes prefixed `rel.`).
    ///
    /// Output rows whose keys are observable are keyed **canonically**:
    /// `[fingerprint hash, rank]` derived from each row's cached
    /// `DataKey`, never from emission order — the invariant that lets the
    /// optimizer reorder a join chain without changing observable
    /// results (see the module docs).
    Join {
        /// Input plan (left side).
        input: Box<Query>,
        /// Relation to join in (right side; must be a database entry).
        rel: String,
        /// Attribute of the input's output tuples.
        input_attr: String,
        /// Attribute of `rel`'s tuples.
        rel_attr: String,
    },
    /// Group by attributes and aggregate.
    GroupAgg {
        /// Input plan.
        input: Box<Query>,
        /// Grouping attributes.
        by: Vec<String>,
        /// `(output name, aggregate)` pairs.
        aggs: Vec<(String, AggSpec)>,
    },
    /// Order by an attribute; output is keyed by rank.
    OrderBy {
        /// Input plan.
        input: Box<Query>,
        /// Sort attribute.
        attr: String,
        /// Direction.
        order: crate::transform::Order,
    },
    /// Keep the first k tuples (by key order; compose with [`Query::OrderBy`]
    /// for top-k).
    Limit {
        /// Input plan.
        input: Box<Query>,
        /// Number of tuples to keep.
        k: usize,
    },
    /// A plan-construction error captured for deferred reporting: built
    /// when a builder like [`Query::filter`] is handed an unparsable or
    /// unbindable predicate, and surfaced as that error by
    /// [`Query::eval`] / [`Query::estimated_rows`]. Lets builder chains
    /// compose without `?` mid-pipeline; use [`Query::try_filter`] for
    /// eager validation.
    Invalid {
        /// The deferred error's message.
        message: String,
    },
}

impl Query {
    /// Starts a plan scanning a relation.
    pub fn scan(rel: &str) -> Query {
        Query::Scan {
            rel: rel.to_string(),
        }
    }

    /// Adds a filter from a textual predicate with parameters. The
    /// predicate is parsed and bound now, but a parse/bind *error* is
    /// deferred: the chain keeps composing (every builder returns
    /// `Query`) and the error surfaces at [`Self::eval`], carried by a
    /// [`Query::Invalid`] node. Use [`Self::try_filter`] to validate
    /// eagerly instead.
    pub fn filter(self, src: &str, params: Params) -> Query {
        match Self::parse_bound(src, &params) {
            Ok(pred) => self.filter_expr(pred),
            Err(e) => Query::Invalid {
                message: e.to_string(),
            },
        }
    }

    /// [`Self::filter`] with **eager** validation: a predicate that fails
    /// to parse or bind errors here, at plan-construction time, exactly
    /// like the pre-PR 8 `filter` did.
    pub fn try_filter(self, src: &str, params: Params) -> Result<Query> {
        Ok(self.filter_expr(Self::parse_bound(src, &params).map_err(FdmError::from)?))
    }

    fn parse_bound(src: &str, params: &Params) -> std::result::Result<Expr, fdm_expr::ExprError> {
        params.bind(&fdm_expr::parse(src)?)
    }

    /// `node` over this plan, or [`Query::Invalid`] when that would chain
    /// more than [`MAX_PLAN_DEPTH`] operators — every builder's one step.
    fn then(self, node: impl FnOnce(Box<Query>) -> Query) -> Query {
        if self.chain().nth(MAX_PLAN_DEPTH - 1).is_some() {
            return Query::Invalid {
                message: too_deep().to_string(),
            };
        }
        node(Box::new(self))
    }

    /// Adds a filter from an already-bound expression.
    pub fn filter_expr(self, pred: Expr) -> Query {
        self.then(|input| Query::Filter { input, pred })
    }

    /// Adds a projection.
    pub fn project(self, attrs: &[&str]) -> Query {
        let attrs = attrs.iter().map(|s| s.to_string()).collect();
        self.then(|input| Query::Project { input, attrs })
    }

    /// Adds a left-deep equi-join with a base relation.
    pub fn join(self, rel: &str, input_attr: &str, rel_attr: &str) -> Query {
        self.then(|input| Query::Join {
            input,
            rel: rel.to_string(),
            input_attr: input_attr.to_string(),
            rel_attr: rel_attr.to_string(),
        })
    }

    /// Adds grouping + aggregation.
    pub fn group_agg(self, by: &[&str], aggs: &[(&str, AggSpec)]) -> Query {
        self.then(|input| Query::GroupAgg {
            input,
            by: by.iter().map(|s| s.to_string()).collect(),
            aggs: aggs
                .iter()
                .map(|(n, a)| (n.to_string(), a.clone()))
                .collect(),
        })
    }

    /// Adds an order-by (rank-keyed output).
    pub fn order_by(self, attr: &str, order: crate::transform::Order) -> Query {
        self.then(|input| Query::OrderBy {
            input,
            attr: attr.to_string(),
            order,
        })
    }

    /// Adds a limit.
    pub fn limit(self, k: usize) -> Query {
        self.then(|input| Query::Limit { input, k })
    }

    /// Rewrites the plan without database statistics: constant folding,
    /// filter fusion, predicate pushdown, and projection pruning to
    /// fixpoint ([`Optimizer::statistics_free`]). Join order is left
    /// exactly as declared — reordering needs cardinality estimates,
    /// which need a database; use [`Self::optimize_for`] when one is at
    /// hand.
    pub fn optimize(self) -> Query {
        Optimizer::statistics_free().optimize_without_stats(self)
    }

    /// The full optimizer: [`Self::optimize`]'s statistics-free rewrites
    /// plus **join reordering** against `db`'s statistics by the greedy
    /// n-way enumerator ([`crate::optimizer::GreedyJoinOrder`]). This is
    /// a thin wrapper over [`Optimizer::default`] (pinned by
    /// `optimize_for_is_default_optimizer` in
    /// `tests/tests/optimizer_rules.rs`); build an [`Optimizer`] directly
    /// for custom rules or the rewrite trace. The equivalence tests
    /// compare it against [`Optimizer::statistics_free`], which keeps the
    /// declared order, and prove the produced relations are key- and
    /// data-identical.
    ///
    /// # Examples
    ///
    /// ```
    /// use fdm_fql::plan::Query;
    /// use fdm_fql::testutil::retail_db;
    ///
    /// let db = retail_db();
    /// let q = Query::scan("customers").project(&["name"]);
    /// // no joins to reorder: optimize_for degenerates to optimize
    /// assert_eq!(q.clone().optimize_for(&db).explain(), q.optimize().explain());
    /// ```
    pub fn optimize_for(self, db: &DatabaseF) -> Query {
        Optimizer::default().optimize(self, db)
    }

    /// Executes the plan against a database function.
    pub fn eval(&self, db: &DatabaseF) -> Result<RelationF> {
        self.check_depth()?;
        Op::lower(self, db, true)?.collect(&mut Vec::new())
    }

    /// Executes the plan, also reporting per-operator output cardinalities
    /// (innermost first) — the EXPLAIN ANALYZE of this engine. Every
    /// operator counts the rows it hands on; none is materialized to be
    /// counted.
    pub fn eval_with_stats(&self, db: &DatabaseF) -> Result<(RelationF, QueryStats)> {
        self.check_depth()?;
        let mut counts = Vec::new();
        let rel = Op::lower(self, db, true)?.collect(&mut counts)?;
        let operators: Vec<String> = self.chain().map(Query::describe).collect();
        let produced = operators.into_iter().rev().zip(counts).collect();
        Ok((rel, QueryStats { produced }))
    }

    /// [`FdmError::PlanTooDeep`] for a plan chaining more than
    /// [`MAX_PLAN_DEPTH`] operators — the check every recursive walk of a
    /// plan runs first. It walks at most that many.
    pub(crate) fn check_depth(&self) -> Result<()> {
        match self.chain().nth(MAX_PLAN_DEPTH) {
            Some(_) => Err(too_deep()),
            None => Ok(()),
        }
    }

    /// The plan this operator reads, or `None` for a leaf.
    pub(crate) fn input(&self) -> Option<&Query> {
        match self {
            Query::Scan { .. } | Query::Invalid { .. } => None,
            Query::Filter { input, .. }
            | Query::Project { input, .. }
            | Query::Join { input, .. }
            | Query::GroupAgg { input, .. }
            | Query::OrderBy { input, .. }
            | Query::Limit { input, .. } => Some(input),
        }
    }

    /// Rebuilds this operator around `f(input)` and passes on whether `f`
    /// changed anything; a leaf comes back as it is, unchanged. This is
    /// the one plan walk every optimizer rule shares: a rule matches the
    /// operators it rewrites and hands every other one to `map_input`.
    pub fn map_input(mut self, f: impl FnOnce(Query) -> (Query, bool)) -> (Query, bool) {
        let Some(slot) = self.input_mut() else {
            return (self, false);
        };
        let (next, changed) = f(take(slot));
        *slot = next;
        (self, changed)
    }

    /// The plan this operator reads, mutably, or `None` for a leaf.
    fn input_mut(&mut self) -> Option<&mut Query> {
        match self {
            Query::Scan { .. } | Query::Invalid { .. } => None,
            Query::Filter { input, .. }
            | Query::Project { input, .. }
            | Query::Join { input, .. }
            | Query::GroupAgg { input, .. }
            | Query::OrderBy { input, .. }
            | Query::Limit { input, .. } => Some(input),
        }
    }

    /// Takes the plan this operator reads out of it, leaving an empty scan
    /// in its place; `None` for a leaf. A `Query` drops its own chain, so
    /// a rule cannot move an input out by pattern: it takes the input and
    /// rebuilds the operator around something else.
    pub fn take_input(&mut self) -> Option<Query> {
        self.input_mut().map(take)
    }

    /// This operator, then the one it reads, and so on down to the leaf.
    fn chain(&self) -> impl Iterator<Item = &Query> {
        std::iter::successors(Some(self), |q| q.input())
    }

    fn describe(&self) -> String {
        match self {
            Query::Scan { rel } => format!("scan({rel})"),
            Query::Filter { pred, .. } => format!("filter({pred})"),
            Query::Project { attrs, .. } => format!("project({})", attrs.join(", ")),
            Query::Join {
                rel,
                input_attr,
                rel_attr,
                ..
            } => {
                format!("join({rel} on {input_attr}={rel_attr})")
            }
            Query::GroupAgg { by, aggs, .. } => {
                format!("group_agg(by [{}], {} agg(s))", by.join(", "), aggs.len())
            }
            Query::OrderBy { attr, order, .. } => format!("order_by({attr}, {order:?})"),
            Query::Limit { k, .. } => format!("limit({k})"),
            Query::Invalid { message } => format!("invalid({message})"),
        }
    }

    /// Estimated output cardinality of this plan against `db`, from
    /// [`fdm_core::stats`] — O(plan size), never touching a tuple beyond
    /// the amortized once-per-relation-value sketch build:
    ///
    /// * `Scan` — the relation's stored cardinality;
    /// * `Filter` — input × [`fdm_core::stats::DEFAULT_FILTER_SELECTIVITY`];
    /// * `Project` / `OrderBy` — pass-through;
    /// * `Join` — input × right rows / distinct(right attr), with the
    ///   distinct count from [`fdm_core::estimate_distinct`]: exact for
    ///   key and uniquely constrained attributes, a
    ///   [`fdm_core::DistinctSketch`] estimate for every other stored
    ///   attribute — no magic fraction on this path anymore;
    /// * `GroupAgg` — one row per estimated distinct grouping key: when
    ///   the input chain bottoms out in a `Scan` (through
    ///   filters/projections/sorts/limits), the product of the base
    ///   relation's per-attribute distinct estimates, capped at the input
    ///   estimate. Only when the input is itself a join or aggregation —
    ///   an intermediate no maintained statistic describes — does the
    ///   documented [`fdm_core::stats::DEFAULT_DISTINCT_FRACTION`]
    ///   fallback apply;
    /// * `Limit` — min(k, input).
    ///
    /// Estimates steer cost comparisons ([`Self::explain_with_cost`],
    /// [`Self::optimize_for`]'s join reordering); they never change what
    /// a plan produces.
    pub fn estimated_rows(&self, db: &DatabaseF) -> Result<f64> {
        self.check_depth()?;
        self.estimate(db)
    }

    /// [`Self::estimated_rows`] of a plan whose depth is checked.
    fn estimate(&self, db: &DatabaseF) -> Result<f64> {
        use fdm_core::stats::{DEFAULT_DISTINCT_FRACTION, DEFAULT_FILTER_SELECTIVITY};
        Ok(match self {
            Query::Scan { rel } => {
                fdm_core::RelationStats::of(db.relation(rel)?.as_ref()).rows as f64
            }
            Query::Filter { input, .. } => input.estimate(db)? * DEFAULT_FILTER_SELECTIVITY,
            Query::Project { input, .. } | Query::OrderBy { input, .. } => input.estimate(db)?,
            Query::Join {
                input,
                rel,
                rel_attr,
                ..
            } => {
                let left = input.estimate(db)?;
                let right = db.relation(rel)?;
                let rows = fdm_core::RelationStats::of(&right).rows;
                let distinct = fdm_core::estimate_distinct(&right, rel_attr).max(1);
                left * rows as f64 / distinct as f64
            }
            Query::GroupAgg { input, by, .. } => {
                let rows = input.estimate(db)?;
                if rows <= 1.0 {
                    rows
                } else if let Some(base) = input.base_scan() {
                    // distinct keys of the base relation bound the group
                    // count: independence-assumption product of the
                    // per-attribute estimates, capped at the input rows
                    let rel = db.relation(base)?;
                    let mut groups = 1.0f64;
                    for attr in by {
                        groups *= fdm_core::estimate_distinct(&rel, attr).max(1) as f64;
                    }
                    groups.min(rows).max(1.0)
                } else {
                    // the input is an intermediate (join/aggregation
                    // output) no maintained statistic describes — the one
                    // place the System-R magic fraction still stands in
                    (rows / DEFAULT_DISTINCT_FRACTION as f64).max(1.0)
                }
            }
            Query::Limit { input, k } => input.estimate(db)?.min(*k as f64),
            Query::Invalid { message } => return Err(FdmError::Expr(message.clone())),
        })
    }

    /// The base relation this plan scans, if the chain down to the leaf
    /// preserves rows' attribute values (filters, projections, sorts,
    /// limits — not joins or aggregations, whose outputs are new shapes).
    /// Lets `GroupAgg` estimates consult the base relation's sketches.
    fn base_scan(&self) -> Option<&str> {
        match self {
            Query::Scan { rel } => Some(rel),
            Query::Join { .. } | Query::GroupAgg { .. } => None,
            other => other.input()?.base_scan(),
        }
    }

    /// [`Self::explain`] with the estimated cardinality annotated per
    /// operator (`~N rows`) — the cost-model view of the plan, next to
    /// [`Self::eval_with_stats`]'s measured one.
    pub fn explain_with_cost(&self, db: &DatabaseF) -> Result<String> {
        self.check_depth()?;
        let mut s = String::new();
        for (depth, q) in self.chain().enumerate() {
            let rows = q.estimate(db)?;
            s.push_str(&format!(
                "{}{}  ~{rows:.0} rows\n",
                "  ".repeat(depth),
                q.describe()
            ));
        }
        Ok(s)
    }

    /// Pretty-prints the plan tree, one operator per line, leaves deepest.
    pub fn explain(&self) -> String {
        let lines = self.chain().enumerate();
        let lines = lines.map(|(depth, q)| format!("{}{}\n", "  ".repeat(depth), q.describe()));
        lines.collect()
    }
}

impl Query {
    /// This operator alone: its own fields, over an empty scan where it
    /// reads an input.
    fn copy_node(&self) -> Query {
        let hole = || Box::new(Query::scan(""));
        match self {
            Query::Scan { rel } => Query::Scan { rel: rel.clone() },
            Query::Filter { pred, .. } => Query::Filter {
                input: hole(),
                pred: pred.clone(),
            },
            Query::Project { attrs, .. } => Query::Project {
                input: hole(),
                attrs: attrs.clone(),
            },
            Query::Join {
                rel,
                input_attr,
                rel_attr,
                ..
            } => Query::Join {
                input: hole(),
                rel: rel.clone(),
                input_attr: input_attr.clone(),
                rel_attr: rel_attr.clone(),
            },
            Query::GroupAgg { by, aggs, .. } => Query::GroupAgg {
                input: hole(),
                by: by.clone(),
                aggs: aggs.clone(),
            },
            Query::OrderBy { attr, order, .. } => Query::OrderBy {
                input: hole(),
                attr: attr.clone(),
                order: *order,
            },
            Query::Limit { k, .. } => Query::Limit {
                input: hole(),
                k: *k,
            },
            Query::Invalid { message } => Query::Invalid {
                message: message.clone(),
            },
        }
    }
}

impl Clone for Query {
    /// Copies the chain one operator at a time, each copy filling the hole
    /// its parent's copy left: the derived clone would recurse once per
    /// operator, and a plan built from the variants directly has no depth
    /// limit.
    fn clone(&self) -> Query {
        let mut out = self.copy_node();
        let mut at = &mut out;
        for next in self.chain().skip(1) {
            let Some(hole) = at.input_mut() else { break };
            *hole = next.copy_node();
            at = hole;
        }
        out
    }
}

impl fmt::Debug for Query {
    /// One operator per line, from this one down to its leaf, each with
    /// its own fields: the derived format would recurse once per operator.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (depth, q) in self.chain().enumerate() {
            if depth > 0 {
                f.write_str("\n")?;
            }
            match q {
                Query::Scan { rel } => f.debug_struct("Scan").field("rel", rel).finish(),
                Query::Filter { pred, .. } => f.debug_struct("Filter").field("pred", pred).finish(),
                Query::Project { attrs, .. } => {
                    f.debug_struct("Project").field("attrs", attrs).finish()
                }
                Query::Join {
                    rel,
                    input_attr,
                    rel_attr,
                    ..
                } => f
                    .debug_struct("Join")
                    .field("rel", rel)
                    .field("input_attr", input_attr)
                    .field("rel_attr", rel_attr)
                    .finish(),
                Query::GroupAgg { by, aggs, .. } => f
                    .debug_struct("GroupAgg")
                    .field("by", by)
                    .field("aggs", aggs)
                    .finish(),
                Query::OrderBy { attr, order, .. } => f
                    .debug_struct("OrderBy")
                    .field("attr", attr)
                    .field("order", order)
                    .finish(),
                Query::Limit { k, .. } => f.debug_struct("Limit").field("k", k).finish(),
                Query::Invalid { message } => {
                    f.debug_struct("Invalid").field("message", message).finish()
                }
            }?;
        }
        Ok(())
    }
}

impl Drop for Query {
    /// Unlinks the chain one operator at a time: the derived drop would
    /// recurse once per operator, and a plan built from the variants
    /// directly has no depth limit.
    fn drop(&mut self) {
        let mut next = self.take_input();
        while let Some(mut q) = next {
            next = q.take_input();
        }
    }
}

/// Moves the plan in `slot` out; an empty scan, which allocates nothing,
/// holds the slot.
fn take(slot: &mut Query) -> Query {
    std::mem::replace(slot, Query::Scan { rel: String::new() })
}

/// The error a plan deeper than [`MAX_PLAN_DEPTH`] gets.
fn too_deep() -> FdmError {
    FdmError::PlanTooDeep {
        limit: MAX_PLAN_DEPTH,
    }
}

/// Keys join output rows by their **canonical row id**, in id order (the
/// order the builder above takes in one presorted pass).
///
/// The id of a row is `[hash, rank]`: the 64-bit hash of the tuple's
/// cached `DataKey` fingerprint, plus a rank that disambiguates rows
/// whose hashes collide — assigned by canonical data-key order within
/// the collision group, so it too is independent of emission order (rows
/// with *identical* data are interchangeable by definition; rows with
/// merely colliding hashes order by their full canonical keys). Ids are
/// therefore a pure function of the produced row **data**: every join
/// order that yields the same rows yields the same keyed relation, which
/// is the contract `Query::optimize_for`'s reordering relies on.
pub(crate) fn canonical_keyed(rows: Vec<Arc<TupleF>>) -> Result<Vec<(Value, Arc<TupleF>)>> {
    // computing — and caching on the tuple — each fingerprint exactly once
    let mut keyed: Vec<(i64, Arc<TupleF>)> = Vec::with_capacity(rows.len());
    for t in rows {
        keyed.push((t.fingerprint()?.hash() as i64, t));
    }
    // by hash as the `Value::Int` the id carries it in, colliding rows by
    // canonical data key; stable, so identical rows keep emission order
    fn data_key(t: &TupleF) -> &Value {
        t.fingerprint().expect("cached above").value()
    }
    keyed.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| data_key(&a.1).cmp(data_key(&b.1)))
    });
    // ids now ascend, so the builder takes its presorted O(n) bulk path;
    // a row's rank is its position in its run of equal hashes
    let mut prev: Option<(i64, i64)> = None;
    let ids = keyed.into_iter().map(|(hash, t)| {
        let rank = match prev {
            Some((h, rank)) if h == hash => rank + 1,
            _ => 0,
        };
        prev = Some((hash, rank));
        (Value::list([Value::Int(hash), Value::Int(rank)]), t)
    });
    Ok(ids.collect())
}

/// Per-operator output cardinalities from [`Query::eval_with_stats`],
/// innermost operator first.
#[derive(Debug, Default, Clone)]
pub struct QueryStats {
    /// `(operator description, rows produced)` in execution order.
    pub produced: Vec<(String, usize)>,
}

impl QueryStats {
    /// Total intermediate rows produced across all operators — the
    /// quantity predicate pushdown minimizes.
    pub fn total_intermediate(&self) -> usize {
        self.produced.iter().map(|(_, n)| n).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{retail_db, skewed_db};

    fn order_rel_db() -> DatabaseF {
        // retail db with the order relationship flattened to a relation so
        // the left-deep Join node can use it
        let db = retail_db();
        let order_rel = db
            .relationship("order")
            .unwrap()
            .to_relation()
            .renamed("orders");
        db.with_relation(order_rel)
    }

    #[test]
    fn scan_filter_project_pipeline() {
        let q = Query::scan("customers")
            .filter("age > $min", Params::new().set("min", 40))
            .project(&["name"]);
        let out = q.eval(&retail_db()).unwrap();
        assert_eq!(out.len(), 2);
        let (_, t) = out.tuples().unwrap().remove(0);
        assert_eq!(t.attr_count(), 1);
    }

    #[test]
    fn join_node_qualifies_right_side() {
        let q = Query::scan("orders").join("customers", "cid", "cid");
        let out = q.eval(&order_rel_db()).unwrap();
        assert_eq!(out.len(), 3);
        let (_, t) = out.tuples().unwrap().remove(0);
        assert!(t.has_attr("customers.name"));
        assert!(t.has_attr("date"), "left side unprefixed");
    }

    #[test]
    fn optimize_fuses_filters() {
        let q = Query::scan("customers")
            .filter("age > 30", Params::new())
            .filter("age < 50", Params::new());
        let opt = q.clone().optimize();
        let plan = opt.explain();
        assert_eq!(plan.matches("filter").count(), 1, "fused: {plan}");
        assert_eq!(
            q.eval(&retail_db()).unwrap().len(),
            opt.eval(&retail_db()).unwrap().len()
        );
    }

    #[test]
    fn optimize_pushes_filter_below_join() {
        let q = Query::scan("orders")
            .join("customers", "cid", "cid")
            .filter("date == '2026-01-05'", Params::new());
        let opt = q.clone().optimize();
        let plan = opt.explain();
        // filter mentions only the left side ("date") → below the join
        let filter_line = plan.lines().position(|l| l.contains("filter")).unwrap();
        let join_line = plan.lines().position(|l| l.contains("join")).unwrap();
        assert!(filter_line > join_line, "filter pushed below join:\n{plan}");

        let db = order_rel_db();
        let (r1, s1) = q.eval_with_stats(&db).unwrap();
        let (r2, s2) = opt.eval_with_stats(&db).unwrap();
        assert_eq!(r1.len(), r2.len(), "same result");
        assert!(
            s2.total_intermediate() < s1.total_intermediate(),
            "pushdown reduces intermediates: {} vs {}",
            s2.total_intermediate(),
            s1.total_intermediate()
        );
    }

    #[test]
    fn filter_on_joined_attrs_stays_above_expr() {
        use fdm_expr::{BinOp, Expr};
        let pred = Expr::bin(
            BinOp::Gt,
            Expr::Attr(Arc::from("customers.age")),
            Expr::lit(40),
        );
        let q = Query::scan("orders")
            .join("customers", "cid", "cid")
            .filter_expr(pred);
        let opt = q.clone().optimize();
        let plan = opt.explain();
        let filter_line = plan.lines().position(|l| l.contains("filter")).unwrap();
        let join_line = plan.lines().position(|l| l.contains("join")).unwrap();
        assert!(filter_line < join_line, "filter must stay above:\n{plan}");
        let out = opt.eval(&order_rel_db()).unwrap();
        assert_eq!(out.len(), 2, "only Alice's orders");
    }

    #[test]
    fn optimize_pushes_filter_below_project() {
        let q = Query::scan("customers")
            .project(&["name", "age"])
            .filter("age > 40", Params::new());
        let opt = q.clone().optimize();
        let plan = opt.explain();
        let filter_line = plan.lines().position(|l| l.contains("filter")).unwrap();
        let project_line = plan.lines().position(|l| l.contains("project")).unwrap();
        assert!(filter_line > project_line, "{plan}");
        assert_eq!(opt.eval(&retail_db()).unwrap().len(), 2);
    }

    #[test]
    fn group_agg_node() {
        let q = Query::scan("orders")
            .join("products", "pid", "pid")
            .group_agg(&["cid"], &[("n", AggSpec::Count)]);
        let out = q.eval(&order_rel_db()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(
            out.lookup(&Value::Int(1)).unwrap().get("n").unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn order_by_and_limit_nodes() {
        use crate::transform::Order;
        let q = Query::scan("customers")
            .order_by("age", Order::Desc)
            .limit(2);
        let out = q.eval(&retail_db()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(
            out.lookup(&Value::Int(0)).unwrap().get("age").unwrap(),
            Value::Int(55)
        );
        assert_eq!(
            out.lookup(&Value::Int(1)).unwrap().get("age").unwrap(),
            Value::Int(43)
        );
    }

    #[test]
    fn filter_stays_above_order_by() {
        // Pushing a filter below a sort would change the observable rank
        // keys (gapped vs contiguous) — the optimizer must not do it.
        use crate::transform::Order;
        let q = Query::scan("customers")
            .order_by("age", Order::Asc)
            .filter("age > 30", Params::new());
        let opt = q.clone().optimize();
        let plan = opt.explain();
        let filter_line = plan.lines().position(|l| l.contains("filter")).unwrap();
        let sort_line = plan.lines().position(|l| l.contains("order_by")).unwrap();
        assert!(filter_line < sort_line, "filter must stay above:\n{plan}");
        // optimized and declared plans produce IDENTICAL keyed results:
        // ages 30, 43, 55 rank as 0, 1, 2; the filter keeps ranks 1 and 2.
        let a = q.eval(&retail_db()).unwrap();
        let b = opt.eval(&retail_db()).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a.stored_keys(), b.stored_keys());
        assert_eq!(a.stored_keys(), vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn cost_estimates_from_stats() {
        let db = order_rel_db();
        // scan estimate is the exact cardinality
        let scan = Query::scan("customers");
        assert_eq!(scan.estimated_rows(&db).unwrap(), 3.0);
        // joining through a key attribute has fan-out 1: estimate equals
        // the left side
        let join = Query::scan("orders").join("customers", "cid", "cid");
        assert_eq!(join.estimated_rows(&db).unwrap(), 3.0);
        // a filter shrinks the estimate; pushdown therefore estimates
        // cheaper intermediate work than the declared order measures
        let q = join.clone().filter("date == '2026-01-05'", Params::new());
        let opt = q.clone().optimize();
        let declared_join_est = join.estimated_rows(&db).unwrap();
        // in the optimized plan the join sits above the filter
        let Query::Join { input, .. } = &opt else {
            panic!("optimized plan should be a join on top: {}", opt.explain());
        };
        assert!(
            input.estimated_rows(&db).unwrap() < declared_join_est,
            "filter below the join shrinks its input estimate"
        );
        // estimation never changes results
        assert_eq!(q.eval(&db).unwrap().len(), opt.eval(&db).unwrap().len());
        let annotated = opt.explain_with_cost(&db).unwrap();
        assert!(annotated.contains("~"), "{annotated}");
        assert!(annotated.contains("rows"), "{annotated}");
    }

    #[test]
    fn optimize_for_reorders_joins_without_changing_results() {
        let db = skewed_db();
        // declared: the fan-out-4 join first — the expensive order
        let q = Query::scan("base")
            .join("wide", "wk", "k")
            .join("narrow", "nk", "k2");
        let opt = q.clone().optimize_for(&db);
        let plan = opt.explain();
        let wide_line = plan.lines().position(|l| l.contains("wide")).unwrap();
        let narrow_line = plan.lines().position(|l| l.contains("narrow")).unwrap();
        // deeper line = executed earlier; narrow must now run first
        assert!(narrow_line > wide_line, "narrow joined first:\n{plan}");

        // ...and the keyed results are identical: same canonical row ids
        // mapping to data-identical tuples
        let declared = q.eval(&db).unwrap();
        let reordered = opt.eval(&db).unwrap();
        assert_eq!(declared.len(), 24, "6 base rows × 4 wide × 1 narrow");
        assert_eq!(declared.stored_keys(), reordered.stored_keys());
        for (key, t) in declared.tuples().unwrap() {
            assert!(
                t.eq_data(&reordered.lookup(&key).unwrap()),
                "row {key} diverges"
            );
        }
    }

    #[test]
    fn reorder_pins_dependent_and_self_joins() {
        let db = skewed_db();
        // the upper join keys off the lower join's output ("wide.wv"):
        // swapping would orphan the attribute — pinned
        let q = Query::scan("base")
            .join("wide", "wk", "k")
            .join("narrow", "wide.wv", "k2");
        let opt = q.clone().optimize_for(&db);
        assert_eq!(opt.explain(), q.explain(), "dependent joins keep order");
        // two joins against the same relation are pinned too (duplicate
        // qualified names would tie data keys to executed order)
        let q = Query::scan("base")
            .join("wide", "wk", "k")
            .join("wide", "nk", "k");
        let opt = q.clone().optimize_for(&db);
        assert_eq!(opt.explain(), q.explain(), "self-join pair keeps order");
    }

    #[test]
    fn join_row_ids_are_canonical() {
        let db = order_rel_db();
        let q = Query::scan("orders").join("customers", "cid", "cid");
        let out = q.eval(&db).unwrap();
        // ids are [hash, rank] lists derived from row data, so re-running
        // the identical plan reproduces them exactly
        let again = q.eval(&db).unwrap();
        assert_eq!(out.stored_keys(), again.stored_keys());
        for key in out.stored_keys() {
            assert!(matches!(key, Value::List(ref items) if items.len() == 2));
        }
        // each id's hash component is the tuple's own fingerprint hash
        for (key, t) in out.tuples().unwrap() {
            let Value::List(items) = key else {
                panic!("list id")
            };
            let Value::Int(h) = items[0] else {
                panic!("hash id")
            };
            assert_eq!(h, t.fingerprint().unwrap().hash() as i64);
        }
    }

    #[test]
    fn clone_and_debug_walk_the_chain() {
        let q = Query::scan("customers")
            .filter("age > 40", Params::new())
            .join("orders", "cid", "cid")
            .group_agg(&["state"], &[("n", AggSpec::Count)])
            .order_by("n", crate::transform::Order::Desc)
            .limit(3)
            .project(&["state"]);
        let copy = q.clone();
        assert_eq!(copy.explain(), q.explain());
        let text = format!("{copy:?}");
        assert_eq!(text, format!("{q:?}"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7, "{text}");
        assert!(lines[0].starts_with("Project"), "{text}");
        assert!(
            lines[3].starts_with("GroupAgg") && lines[3].contains("Count"),
            "{text}"
        );
        assert_eq!(lines[6], r#"Scan { rel: "customers" }"#);
    }

    #[test]
    fn map_input_rebuilds_the_node_around_its_input() {
        let q = Query::scan("customers")
            .filter("age > 1", Params::new())
            .limit(2);
        assert!(matches!(q.input(), Some(Query::Filter { .. })));
        // the node keeps its own fields; the input is whatever `f` returns
        let (swapped, changed) = q.clone().map_input(|_| (Query::scan("orders"), true));
        assert!(changed);
        assert_eq!(swapped.explain(), "limit(2)\n  scan(orders)\n");
        let (same, changed) = q.clone().map_input(|input| (input, false));
        assert!(!changed);
        assert_eq!(same.explain(), q.explain());
        // a leaf has no input: `f` never runs
        let (leaf, changed) = Query::scan("orders").map_input(|_| unreachable!());
        assert!(!changed && leaf.input().is_none());
    }

    #[test]
    fn explain_shows_tree() {
        let q = Query::scan("customers").filter("age > 1", Params::new());
        let s = q.explain();
        assert!(s.contains("filter"));
        assert!(s.contains("scan(customers)"));
    }

    #[test]
    fn bad_filter_defers_its_error_to_eval() {
        // the chain composes without `?`...
        let q = Query::scan("customers")
            .filter("age >", Params::new())
            .project(&["name"])
            .limit(1);
        assert!(q.explain().contains("invalid("), "{}", q.explain());
        // ...and eval reports the parse error the old eager filter threw
        let err = q.eval(&retail_db()).unwrap_err();
        assert!(matches!(err, FdmError::Expr(_)), "{err}");
        assert!(q.estimated_rows(&retail_db()).is_err());
        // the optimizer passes the poisoned plan through untouched
        let opt = Query::scan("customers")
            .filter("age >", Params::new())
            .optimize_for(&retail_db());
        assert!(opt.eval(&retail_db()).is_err());
        // try_filter keeps the eager behavior
        assert!(Query::scan("customers")
            .try_filter("age >", Params::new())
            .is_err());
        assert!(Query::scan("customers")
            .try_filter("age > 1", Params::new())
            .is_ok());
        // an unbound parameter is a bind error, deferred the same way
        let q = Query::scan("customers").filter("age > $min", Params::new());
        assert!(q.eval(&retail_db()).is_err());
    }
}
