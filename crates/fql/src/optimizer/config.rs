//! Typed optimizer configuration: the planner's knobs are plain values
//! on [`OptimizerConfig`], set by the program that builds the
//! [`crate::Optimizer`] — nothing is read from the process environment.

/// How (and whether) the optimizer may reorder joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReorderStrategy {
    /// Keep the declared left-deep order — the A/B baseline.
    Off,
    /// The bubble pass: swap *adjacent* independent joins when the swap
    /// strictly shrinks the inner estimate.
    Adjacent,
    /// Greedy n-way enumeration over the whole join chain, smallest
    /// estimated fan-out first (the default).
    Greedy,
}

/// Which cost signal the schema-level [`crate::join()`] uses to order
/// its relationship probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinCostModel {
    /// Raw relationship entry counts — the original heuristic.
    Entries,
    /// Estimated output rows from [`fdm_core::stats`] (the default).
    Stats,
}

/// Optimizer knobs, each a plain value with a built-in default:
/// [`ReorderStrategy::Greedy`], [`JoinCostModel::Stats`] and
/// [`OptimizerConfig::DEFAULT_MAX_PASSES`].
///
/// ```
/// use fdm_fql::optimizer::{OptimizerConfig, ReorderStrategy};
///
/// assert_eq!(OptimizerConfig::new().reorder(), ReorderStrategy::Greedy);
/// let cfg = OptimizerConfig::new().with_reorder(ReorderStrategy::Off);
/// assert_eq!(cfg.reorder(), ReorderStrategy::Off);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerConfig {
    reorder: ReorderStrategy,
    join_cost: JoinCostModel,
    max_passes: usize,
}

impl Default for OptimizerConfig {
    fn default() -> OptimizerConfig {
        OptimizerConfig {
            reorder: ReorderStrategy::Greedy,
            join_cost: JoinCostModel::Stats,
            max_passes: Self::DEFAULT_MAX_PASSES,
        }
    }
}

impl OptimizerConfig {
    /// The documented fixpoint pass cap (see
    /// [`crate::Optimizer::optimize_traced`]): plans are shallow trees and
    /// every rule in the default set strictly shrinks some measure, so
    /// real plans converge in a handful of passes — the cap only bounds a
    /// misbehaving user rule.
    pub const DEFAULT_MAX_PASSES: usize = 64;

    /// A config with every knob at its default.
    pub fn new() -> OptimizerConfig {
        OptimizerConfig::default()
    }

    /// Sets the join-reordering strategy.
    pub fn with_reorder(mut self, strategy: ReorderStrategy) -> OptimizerConfig {
        self.reorder = strategy;
        self
    }

    /// Sets the schema-join cost model.
    pub fn with_join_cost(mut self, model: JoinCostModel) -> OptimizerConfig {
        self.join_cost = model;
        self
    }

    /// Caps the fixpoint driver's passes (default
    /// [`Self::DEFAULT_MAX_PASSES`]).
    pub fn with_max_passes(mut self, passes: usize) -> OptimizerConfig {
        self.max_passes = passes.max(1);
        self
    }

    /// The join-reordering strategy.
    pub fn reorder(&self) -> ReorderStrategy {
        self.reorder
    }

    /// The schema-join cost model.
    pub fn join_cost(&self) -> JoinCostModel {
        self.join_cost
    }

    /// The fixpoint pass cap (never 0).
    pub fn max_passes(&self) -> usize {
        self.max_passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_greedy_stats_and_the_pass_cap() {
        let cfg = OptimizerConfig::new();
        assert_eq!(cfg, OptimizerConfig::default());
        assert_eq!(cfg.reorder(), ReorderStrategy::Greedy);
        assert_eq!(cfg.join_cost(), JoinCostModel::Stats);
        assert_eq!(cfg.max_passes(), OptimizerConfig::DEFAULT_MAX_PASSES);
        for strategy in [
            ReorderStrategy::Off,
            ReorderStrategy::Adjacent,
            ReorderStrategy::Greedy,
        ] {
            assert_eq!(cfg.with_reorder(strategy).reorder(), strategy);
        }
    }

    #[test]
    fn join_cost_resolution() {
        let entries = OptimizerConfig::new().with_join_cost(JoinCostModel::Entries);
        assert_eq!(entries.join_cost(), JoinCostModel::Entries);
        assert_eq!(
            entries.with_join_cost(JoinCostModel::Stats).join_cost(),
            JoinCostModel::Stats
        );
        assert_eq!(OptimizerConfig::new().join_cost(), JoinCostModel::Stats);
    }

    #[test]
    fn pass_cap_is_never_zero() {
        assert_eq!(
            OptimizerConfig::new().max_passes(),
            OptimizerConfig::DEFAULT_MAX_PASSES
        );
        assert_eq!(OptimizerConfig::new().with_max_passes(0).max_passes(), 1);
    }
}
