//! The retail workload: the paper's Fig. 1 schema (customers, products,
//! order) generated at configurable scale, fan-out, and skew — in both
//! FDM and relational form, from the same seed, so every benchmark
//! compares the two engines on identical data.

use crate::zipf::Zipf;
use fdm_core::{
    Constraint, DatabaseF, Domain, Participant, RelationBuilder, RelationF, RelationshipBuilder,
    SharedDomain, Value, ValueType,
};
use fdm_relational::{Cell, Relation, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the retail generator.
#[derive(Debug, Clone)]
pub struct RetailConfig {
    /// Number of customers.
    pub customers: usize,
    /// Number of products.
    pub products: usize,
    /// Number of order entries (customer–product pairs; duplicates are
    /// retried, so the effective count can be slightly lower at extreme
    /// densities).
    pub orders: usize,
    /// Zipf exponent for product popularity (0 = uniform).
    pub product_skew: f64,
    /// Fraction of customers that never order (outer-join fodder).
    pub inactive_customers: f64,
    /// RNG seed — same seed, same data, both engines.
    pub seed: u64,
}

impl Default for RetailConfig {
    fn default() -> Self {
        RetailConfig {
            customers: 1_000,
            products: 200,
            orders: 5_000,
            product_skew: 1.0,
            inactive_customers: 0.2,
            seed: 42,
        }
    }
}

impl RetailConfig {
    /// A small config for unit tests.
    pub fn small() -> Self {
        RetailConfig {
            customers: 50,
            products: 20,
            orders: 120,
            product_skew: 1.0,
            inactive_customers: 0.2,
            seed: 7,
        }
    }
}

/// The generated raw data, engine-agnostic.
#[derive(Debug, Clone)]
pub struct RetailData {
    /// `(cid, name, age, state)` rows.
    pub customers: Vec<(i64, String, i64, &'static str)>,
    /// `(pid, name, price, category)` rows.
    pub products: Vec<(i64, String, f64, &'static str)>,
    /// `(cid, pid, date, quantity)` rows; `(cid, pid)` unique.
    pub orders: Vec<(i64, i64, String, i64)>,
}

const STATES: [&str; 6] = ["NY", "CA", "TX", "WA", "MA", "IL"];
const CATEGORIES: [&str; 5] = ["audio", "input", "video", "cable", "storage"];

/// Generates the raw data for a config.
pub fn generate(cfg: &RetailConfig) -> RetailData {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let customers: Vec<(i64, String, i64, &'static str)> = (0..cfg.customers)
        .map(|i| {
            (
                i as i64 + 1,
                format!("customer_{i}"),
                18 + rng.random_range(0..60),
                STATES[rng.random_range(0..STATES.len())],
            )
        })
        .collect();
    let products: Vec<(i64, String, f64, &'static str)> = (0..cfg.products)
        .map(|i| {
            (
                i as i64 + 1,
                format!("product_{i}"),
                (rng.random_range(100..10_000) as f64) / 100.0,
                CATEGORIES[rng.random_range(0..CATEGORIES.len())],
            )
        })
        .collect();

    let active_customers =
        ((cfg.customers as f64) * (1.0 - cfg.inactive_customers)).max(1.0) as usize;
    let zipf = Zipf::new(cfg.products, cfg.product_skew);
    let mut seen = std::collections::BTreeSet::new();
    let mut orders = Vec::with_capacity(cfg.orders);
    let mut attempts = 0usize;
    while orders.len() < cfg.orders && attempts < cfg.orders * 20 {
        attempts += 1;
        let cid = rng.random_range(0..active_customers) as i64 + 1;
        let pid = zipf.sample(&mut rng) as i64 + 1;
        if !seen.insert((cid, pid)) {
            continue;
        }
        let date = format!(
            "2026-{:02}-{:02}",
            rng.random_range(1..=12),
            rng.random_range(1..=28)
        );
        orders.push((cid, pid, date, rng.random_range(1..=5)));
    }
    RetailData {
        customers,
        products,
        orders,
    }
}

/// Builds the FDM database (relation functions + the `order` relationship
/// function over shared domains) from generated data.
pub fn to_fdm(data: &RetailData) -> DatabaseF {
    // The generator emits cids/pids in ascending order, so both relations
    // take the O(n) bulk path instead of n persistent inserts — and the
    // schema's attribute-domain constraints are validated in the same
    // single pass that builds the tree (`build_with_constraints`), not by
    // re-scanning per constraint afterwards.
    let mut customers = RelationBuilder::new("customers", &["cid"]);
    for (cid, name, age, state) in &data.customers {
        let tuple = customers
            .tuple(format!("c{cid}"))
            .attr("name", name.as_str())
            .attr("age", *age)
            .attr("state", *state)
            .build();
        customers.push(Value::Int(*cid), tuple);
    }
    let customers = customers
        .build_with_constraints(&[
            Constraint::attr_domain("name", Domain::Typed(ValueType::Str)),
            Constraint::attr_domain("age", Domain::Typed(ValueType::Int)),
            Constraint::attr_domain("state", Domain::Typed(ValueType::Str)),
        ])
        .expect("generated customers satisfy the retail schema");
    fdm_around(data, customers)
}

/// [`to_fdm`] around a caller-built `customers` relation (the serving
/// driver's carries a `credit` attribute): products, the `order`
/// relationship and the shared domains.
pub(crate) fn fdm_around(data: &RetailData, customers: RelationF) -> DatabaseF {
    let cid_dom = SharedDomain::new("cid", Domain::Typed(ValueType::Int));
    let pid_dom = SharedDomain::new("pid", Domain::Typed(ValueType::Int));
    let mut products = RelationBuilder::new("products", &["pid"]);
    for (pid, name, price, category) in &data.products {
        let tuple = products
            .tuple(format!("p{pid}"))
            .attr("name", name.as_str())
            .attr("price", *price)
            .attr("category", *category)
            .build();
        products.push(Value::Int(*pid), tuple);
    }
    let products = products
        .build_with_constraints(&[
            Constraint::unique(&["name"]),
            Constraint::attr_domain("price", Domain::Typed(ValueType::Float)),
            Constraint::attr_domain("category", Domain::Typed(ValueType::Str)),
        ])
        .expect("generated products satisfy the retail schema");
    // Orders arrive in generation (random) order; the relationship
    // builder sorts once and bulk-builds the entry map and its fan-out
    // statistics in one pass, instead of one persistent insert (plus one
    // stats update) per entry.
    let mut order = RelationshipBuilder::new(
        "order",
        vec![
            Participant::new("customers", "cid", cid_dom.clone()),
            Participant::new("products", "pid", pid_dom.clone()),
        ],
    )
    .with_capacity(data.orders.len());
    for (cid, pid, date, qty) in &data.orders {
        let attrs = order
            .tuple("o")
            .attr("date", date.as_str())
            .attr("quantity", *qty)
            .build();
        order
            .push(&[Value::Int(*cid), Value::Int(*pid)], attrs)
            .expect("generated keys lie in the shared domains");
    }
    let order = order.build().expect("generator emits unique (cid, pid)");
    DatabaseF::new("shop")
        .with_domain(cid_dom)
        .with_domain(pid_dom)
        .with_relation(customers)
        .with_relation(products)
        .with_relationship(order)
}

/// The relational form: three tables, orders as a junction table.
#[derive(Debug, Clone)]
pub struct RetailRelational {
    /// `customers(cid, name, age, state)`.
    pub customers: Relation,
    /// `products(pid, name, price, category)`.
    pub products: Relation,
    /// `orders(cid, pid, date, quantity)`.
    pub orders: Relation,
}

/// Builds the relational tables from generated data.
pub fn to_relational(data: &RetailData) -> RetailRelational {
    let mut customers = Relation::new("customers", Schema::new(&["cid", "name", "age", "state"]));
    for (cid, name, age, state) in &data.customers {
        customers.push(vec![
            Cell::Int(*cid),
            Cell::str(name.as_str()),
            Cell::Int(*age),
            Cell::str(*state),
        ]);
    }
    let mut products = Relation::new(
        "products",
        Schema::new(&["pid", "name", "price", "category"]),
    );
    for (pid, name, price, category) in &data.products {
        products.push(vec![
            Cell::Int(*pid),
            Cell::str(name.as_str()),
            Cell::Float(*price),
            Cell::str(*category),
        ]);
    }
    let mut orders = Relation::new("orders", Schema::new(&["cid", "pid", "date", "quantity"]));
    for (cid, pid, date, qty) in &data.orders {
        orders.push(vec![
            Cell::Int(*cid),
            Cell::Int(*pid),
            Cell::str(date.as_str()),
            Cell::Int(*qty),
        ]);
    }
    RetailRelational {
        customers,
        products,
        orders,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let cfg = RetailConfig::small();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.orders, b.orders);
        assert_eq!(a.customers.len(), 50);
        assert_eq!(a.products.len(), 20);
        assert_eq!(a.orders.len(), 120);
    }

    #[test]
    fn order_pairs_are_unique() {
        let data = generate(&RetailConfig::small());
        let mut pairs: Vec<(i64, i64)> = data.orders.iter().map(|(c, p, _, _)| (*c, *p)).collect();
        let n = pairs.len();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), n);
    }

    #[test]
    fn inactive_customers_never_order() {
        let cfg = RetailConfig::small();
        let data = generate(&cfg);
        let active = ((cfg.customers as f64) * (1.0 - cfg.inactive_customers)) as i64;
        assert!(data.orders.iter().all(|(cid, _, _, _)| *cid <= active));
    }

    #[test]
    fn both_engines_get_identical_cardinalities() {
        let data = generate(&RetailConfig::small());
        let fdm = to_fdm(&data);
        let rel = to_relational(&data);
        assert_eq!(
            fdm.relation("customers").unwrap().len(),
            rel.customers.len()
        );
        assert_eq!(fdm.relation("products").unwrap().len(), rel.products.len());
        assert_eq!(fdm.relationship("order").unwrap().len(), rel.orders.len());
    }

    #[test]
    fn skew_concentrates_orders_on_head_products() {
        let cfg = RetailConfig {
            customers: 200,
            products: 100,
            orders: 600,
            product_skew: 1.5,
            inactive_customers: 0.0,
            seed: 3,
        };
        let data = generate(&cfg);
        let head = data
            .orders
            .iter()
            .filter(|(_, pid, _, _)| *pid <= 10)
            .count();
        assert!(
            head as f64 > 0.3 * data.orders.len() as f64,
            "top-10 products draw a large share: {head}/{}",
            data.orders.len()
        );
    }
}
