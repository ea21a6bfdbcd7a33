//! # fdm-fql — the Functional Query Language
//!
//! FQL is an algebra on FDM functions (paper Definitions 4–5): every
//! operator takes functions in and gives functions out, at any granularity
//! — tuples, relations, databases. Nothing is ever forced into a single
//! output table.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Fig. 4a — six filter costumes | [`filter`] |
//! | Fig. 4b/4c — grouping & aggregation | [`group`](mod@group), [`aggregate`](mod@aggregate) |
//! | Fig. 5 — subdatabase / ResultDB | [`subdb`] |
//! | Fig. 6 — n-ary join | [`join`](mod@join) |
//! | Fig. 7 — generalized outer join | [`subdb::outer`] |
//! | Fig. 8 — grouping sets as separate relations | [`aggregate::grouping_sets`] |
//! | Fig. 9 — set operations on databases | [`setops`] |
//! | Fig. 10 — inserts/updates/deletes | [`update`] |
//! | §4.2 — lazy plans, pushdown optimization | [`plan`] |
//! | §4.4 — views (dynamic & materialized) | [`view`] |
//!
//! ```
//! use fdm_fql::prelude::*;
//! use fdm_fql::testutil::retail_db;
//!
//! let db = retail_db();
//! // the paper's Fig. 4a: customers older than 42
//! let customers = db.relation("customers").unwrap();
//! let older = filter_expr(&customers, "age>$foo", Params::new().set("foo", 42)).unwrap();
//! assert_eq!(older.len(), 2);
//!
//! // the paper's Fig. 5: reduce to the participating subdatabase
//! let reduced = reduce_db(&db).unwrap();
//! assert_eq!(reduced.relation("customers").unwrap().len(), 2);
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod filter;
pub mod group;
pub mod ivm;
pub mod join;
pub mod optimizer;
mod physical;
pub mod pivot;
pub mod plan;
pub mod setops;
pub mod subdb;
pub mod testutil;
pub mod transform;
pub mod update;
pub mod view;

pub use aggregate::{
    aggregate, aggregate_all, cube, group_and_aggregate, grouping_sets, rollup, AggSpec,
    GroupingSpec,
};
pub use filter::{
    filter_attr, filter_bound, filter_db, filter_expr, filter_fn, filter_kwargs, filter_tuple,
};
pub use group::{group, group_fn, Groups};
pub use ivm::{IvmStats, MaintainedView};
pub use join::{join, join_on, JoinOn};
pub use optimizer::{
    ConstantFoldingExpr, GreedyJoinOrder, OptimizationRule, OptimizeTrace, Optimizer, PlanContext,
    PredicatePushdown, ProjectionPruning, TraceEntry,
};
pub use pivot::pivot;
pub use plan::{Query, QueryStats};
pub use setops::{deep_copy, deep_copy_relation, difference, intersect, minus, union};
pub use subdb::{outer, reduce_db, reduce_db_with_stats, subdatabase, ReduceStats};
pub use transform::{
    antijoin, distinct, extend, extend_stored, limit, order_by, rename_attrs, semijoin, top_k,
    Order,
};
pub use update::{
    db_add, db_assign, db_delete, db_insert, db_modify_attr, db_rewrite, db_update_attr, db_upsert,
    db_upsert_arc,
};
pub use view::{materialize_view, DynamicView};

/// Convenient glob-import surface: `use fdm_fql::prelude::*;`.
pub mod prelude {
    pub use crate::aggregate::{
        aggregate, aggregate_all, group_and_aggregate, grouping_sets, AggSpec, GroupingSpec,
    };
    pub use crate::filter::{
        filter_attr, filter_bound, filter_db, filter_expr, filter_fn, filter_kwargs,
    };
    pub use crate::group::{group, group_fn};
    pub use crate::ivm::{IvmStats, MaintainedView};
    pub use crate::join::{join, join_on, JoinOn};
    pub use crate::optimizer::Optimizer;
    pub use crate::pivot::pivot;
    pub use crate::plan::Query;
    pub use crate::setops::{deep_copy, deep_copy_relation, difference, intersect, minus, union};
    pub use crate::subdb::{outer, reduce_db, subdatabase};
    pub use crate::transform::{
        antijoin, extend, extend_stored, limit, order_by, rename_attrs, semijoin, top_k, Order,
    };
    pub use crate::update::{
        db_add, db_assign, db_delete, db_insert, db_modify_attr, db_rewrite, db_update_attr,
        db_upsert,
    };
    pub use crate::view::{materialize_view, DynamicView};
    pub use fdm_core::{DatabaseF, FnValue, RelationF, TupleF, Value};
    pub use fdm_expr::{Params, EQ, GE, GT, LE, LT, NE};
}
