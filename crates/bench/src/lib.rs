//! # fdm-bench — the reproduction's benchmark
//!
//! The crate's one program is `fdm_benchmark` (see its `README.md`): four
//! long-running serving and query workloads. This library holds the
//! generated-data helpers it uses: the standard retail configuration, and
//! the same data in both engine forms. The paper's figures are not timed
//! here: `tests/tests/paper_figures.rs` asserts their shapes.

#![warn(missing_docs)]

use fdm_workload::{generate, to_fdm, to_relational, RetailConfig, RetailData, RetailRelational};

/// Builds the standard retail workload at a given number of orders
/// (customers = orders / 5, products = orders / 25, mild skew).
pub fn standard_config(orders: usize) -> RetailConfig {
    RetailConfig {
        customers: (orders / 5).max(10),
        products: (orders / 25).max(5),
        orders,
        product_skew: 1.0,
        inactive_customers: 0.2,
        seed: 0xFD17,
    }
}

/// Generated data in both engine forms.
pub struct BothEngines {
    /// The raw rows.
    pub data: RetailData,
    /// FDM database function.
    pub fdm: fdm_core::DatabaseF,
    /// Relational tables.
    pub rel: RetailRelational,
}

/// Generates a config in both forms.
pub fn both(cfg: &RetailConfig) -> BothEngines {
    let data = generate(cfg);
    let fdm = to_fdm(&data);
    let rel = to_relational(&data);
    BothEngines { data, fdm, rel }
}
