//! The built-in [`crate::optimizer::OptimizationRule`] implementations.
//!
//! Each rule lives in its own module, is independently constructible and
//! testable, and is wired into [`crate::Optimizer::default`] in the
//! documented order (see the module docs of [`crate::optimizer`]).

mod constant_folding;
mod greedy_join_order;
mod predicate_pushdown;
mod projection_pruning;

pub use constant_folding::ConstantFoldingExpr;
pub use greedy_join_order::GreedyJoinOrder;
pub use predicate_pushdown::PredicatePushdown;
pub use projection_pruning::ProjectionPruning;
