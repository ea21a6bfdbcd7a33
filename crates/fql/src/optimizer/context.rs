//! What a rule is allowed to know: statistics, read-only.

use crate::plan::Query;
use fdm_core::DatabaseF;

/// The read-only planning context handed to every
/// [`crate::optimizer::OptimizationRule`]: the database's statistics
/// surface (cardinalities and distinct sketches from [`fdm_core::stats`]).
///
/// Statistics are optional — `Query::optimize` runs the statistics-free
/// rule set with no database at hand — so every estimate accessor returns
/// `Option`: `None` uniformly means "unavailable" (no database, missing
/// relation, or an estimation error), and rules must degrade to a no-op
/// rather than guess. That convention is what keeps cost-driven rewrites
/// pinned to the declared plan whenever the cost model has nothing to say.
pub struct PlanContext<'a> {
    db: Option<&'a DatabaseF>,
}

impl<'a> PlanContext<'a> {
    /// A context with full statistics access.
    pub fn new(db: &'a DatabaseF) -> PlanContext<'a> {
        PlanContext { db: Some(db) }
    }

    /// A context without statistics: every estimate accessor answers
    /// `None`, so cost-driven rules no-op.
    pub fn without_stats() -> PlanContext<'a> {
        PlanContext { db: None }
    }

    /// The database being planned against, when one is at hand.
    pub fn db(&self) -> Option<&'a DatabaseF> {
        self.db
    }

    /// Estimated output cardinality of `plan` ([`Query::estimated_rows`]),
    /// or `None` without statistics or when the estimate fails (e.g. a
    /// relation the plan references is missing).
    pub fn estimated_rows(&self, plan: &Query) -> Option<f64> {
        self.db.and_then(|db| plan.estimated_rows(db).ok())
    }

    /// Stored cardinality of the relation entry `rel`.
    pub fn relation_rows(&self, rel: &str) -> Option<usize> {
        self.db
            .and_then(|db| db.relation_stats(rel).ok())
            .map(|s| s.rows)
    }

    /// Distinct-count estimate for `rel`'s `attr`
    /// ([`DatabaseF::estimate_distinct`]).
    pub fn estimate_distinct(&self, rel: &str, attr: &str) -> Option<usize> {
        self.db.and_then(|db| db.estimate_distinct(rel, attr).ok())
    }
}
