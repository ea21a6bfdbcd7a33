//! Datasets. The dataset seed is fixed — `--seed` only moves the op
//! stream — and each full-scale dataset's fingerprint is asserted against a
//! constant, so a change to the generator fails loudly instead of quietly
//! moving every number.

use crate::json::Json;
use fdm_core::{DatabaseF, RelationF, TupleF, Value};
use fdm_workload::RetailConfig;

pub const DATASET_SEED: u64 = 0xFD17;

/// `(customers, products, orders)`.
pub type Scale = (usize, usize, usize);

pub const SERVE_SCALE: Scale = (400_000, 100_000, 520_000);
pub const VIEW_SCALE: Scale = (100_000, 25_000, 130_000);
pub const FQL_ORDERS: usize = 60_000;
pub const CHAIN_ROWS: usize = 3_000;
pub const CHAIN_FANOUT: usize = 8;

pub const SMOKE_SCALE: Scale = (2_000, 500, 2_600);
pub const SMOKE_FQL_ORDERS: usize = 1_500;
pub const SMOKE_CHAIN_ROWS: usize = 60;

pub fn retail_config((customers, products, orders): Scale) -> RetailConfig {
    RetailConfig {
        customers,
        products,
        orders,
        product_skew: 1.0,
        inactive_customers: 0.2,
        seed: DATASET_SEED,
    }
}

/// Row counts, the sum of `age` over customers, and `total_tuples`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub customers: usize,
    pub products: usize,
    pub orders: usize,
    pub age_sum: i64,
    pub total_tuples: usize,
}

impl Fingerprint {
    /// The `scale` object of an output file.
    pub fn json_fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("customers", Json::Num(self.customers as f64)),
            ("products", Json::Num(self.products as f64)),
            ("orders", Json::Num(self.orders as f64)),
            ("age_sum", Json::Num(self.age_sum as f64)),
            ("total_tuples", Json::Num(self.total_tuples as f64)),
        ]
    }
}

pub const SERVE_FINGERPRINT: Fingerprint = Fingerprint {
    customers: 400_000,
    products: 100_000,
    orders: 520_000,
    age_sum: 19_016_733,
    total_tuples: 1_020_000,
};

pub const VIEW_FINGERPRINT: Fingerprint = Fingerprint {
    customers: 100_000,
    products: 25_000,
    orders: 130_000,
    age_sum: 4_753_358,
    total_tuples: 255_000,
};

pub const FQL_FINGERPRINT: Fingerprint = Fingerprint {
    customers: 12_000,
    products: 2_400,
    orders: 60_000,
    age_sum: 570_235,
    total_tuples: 74_400,
};

pub fn fingerprint(db: &DatabaseF) -> Result<Fingerprint, String> {
    let err = |e: fdm_core::FdmError| e.to_string();
    let customers = db.relation("customers").map_err(err)?;
    let mut age_sum = 0i64;
    for (_, t) in customers.iter_stored() {
        age_sum += t.get("age").and_then(|v| v.as_int("age")).map_err(err)?;
    }
    Ok(Fingerprint {
        customers: customers.len(),
        products: db.relation("products").map_err(err)?.len(),
        orders: db.relationship("order").map_err(err)?.len(),
        age_sum,
        total_tuples: db.total_tuples(),
    })
}

/// The name the generator gave customer `cid` — what a point read must
/// return — checked without allocating.
pub fn name_matches(t: &TupleF, cid: i64) -> bool {
    match t.get("name") {
        Ok(Value::Str(s)) => s
            .strip_prefix("customer_")
            .and_then(|d| d.parse::<i64>().ok())
            .is_some_and(|i| i == cid - 1),
        _ => false,
    }
}

/// A scan must return exactly `len` rows with keys `start, start+1, …`.
pub fn scan_matches(rows: &[(Value, std::sync::Arc<TupleF>)], start: i64, len: i64) -> bool {
    rows.len() as i64 == len
        && rows
            .iter()
            .zip(start..)
            .all(|((k, _), want)| matches!(k, Value::Int(got) if *got == want))
}

/// Same keys in the same order, same data under each key.
pub fn relations_equal(a: &RelationF, b: &RelationF) -> bool {
    let (Ok(ta), Ok(tb)) = (a.tuples(), b.tuples()) else {
        return false;
    };
    ta.len() == tb.len()
        && ta
            .iter()
            .zip(&tb)
            .all(|((ka, va), (kb, vb))| ka == kb && va.eq_data(vb))
}

/// Sum of `credit` over customers: the audit figure every acknowledged
/// delta must show up in, exactly once.
pub fn total_credit(db: &DatabaseF) -> Result<i64, String> {
    let err = |e: fdm_core::FdmError| e.to_string();
    let mut sum = 0i64;
    for (_, t) in db.relation("customers").map_err(err)?.iter_stored() {
        sum += t
            .get("credit")
            .and_then(|v| v.as_int("credit"))
            .map_err(err)?;
    }
    Ok(sum)
}
