//! Maintained views under real concurrency (PR 9): Zipf-contended
//! writer threads from `fdm_workload::driver` against a store with
//! registered views, clean and with injected faults.
//!
//! Checked invariants:
//!
//! 1. **Eager views ride every commit** — after the writer run, the
//!    eager view's watermark is the store head and its content equals a
//!    from-scratch evaluation of its plan on the head snapshot.
//! 2. **Versioned refresh is exact** — for *every* committed version
//!    `v`, bringing a manual-mode view forward with
//!    `refresh_views_to(v)` yields exactly the plan evaluated over
//!    `as_of(v)` — the differential oracle, once per version.
//! 3. **Fault injection changes nothing observable** — forced
//!    transient conflicts and widened CAS races (the PR 6 `FaultPlan`)
//!    leave both invariants intact.
//! 4. **Mid-stream registration is race-free** — a view registered
//!    while writers are committing starts at a consistent snapshot and
//!    tracks from there.
//! 5. **One delta per commit serves every view** — views registered at
//!    different versions, one of them manual and refreshed 16+ commits
//!    late, all apply the delta of each commit's record (the history's
//!    ring keeps the record; the catalog keeps nothing per commit).
//! 6. **A view behind a short ring is rebuilt** — with a two-version
//!    history, the eager view still ends at the head; a manual view far
//!    behind is rebuilt over the oldest retained version and drained to
//!    the head; a refresh below the ring is a typed error that moves
//!    nothing.
//!
//! Thread count is `THREADS` from the environment (default 4); the CI
//! `view-stress` job runs this file at 1 and 4, and the short-ring test
//! 25 times more at 4.

use fdm_core::{FdmError, RelationF};
use fdm_expr::Params;
use fdm_fql::plan::Query;
use fdm_fql::AggSpec;
use fdm_tests::canonical_rows;
use fdm_txn::{FaultPlan, RefreshMode, Store, StoreConfig};
use fdm_workload::{retail_store, run_writers, MixedConfig, RetailConfig};
use std::sync::Arc;
use std::time::Duration;

fn threads() -> usize {
    std::env::var("THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or(4)
}

fn mixed_config() -> MixedConfig {
    MixedConfig {
        threads: threads(),
        ops_per_thread: 120 / threads().max(1),
        seed: 92,
        skew: 0.9,
    }
}

/// The eager view: customers someone has paid credit into.
fn hot_query() -> Query {
    Query::scan("customers").filter("credit > 0", Params::new())
}

/// The manual view: per-state credit totals — group/aggregate, the
/// operator with the most delta state.
fn by_state_query() -> Query {
    Query::scan("customers").group_agg(
        &["state"],
        &[
            ("n", AggSpec::Count),
            ("credit", AggSpec::Sum("credit".into())),
        ],
    )
}

fn assert_rows_equal(maintained: &RelationF, plan: &Query, db: &fdm_core::DatabaseF, ctx: &str) {
    let fresh = plan.eval(db).expect("recompute oracle");
    assert_eq!(
        canonical_rows(maintained),
        canonical_rows(&fresh),
        "{ctx}: maintained view diverged from recompute"
    );
}

/// Runs the writers, then checks both invariants: the eager view at
/// head, and the manual view against `as_of(v)` for every `v`.
fn run_and_check(store: &Arc<Store>, cfg: &MixedConfig) {
    let v0 = store.register_view("hot", hot_query()).unwrap();
    assert_eq!(v0, 0);
    store
        .register_view_with("by_state", by_state_query(), RefreshMode::Manual)
        .unwrap();

    let records = run_writers(store, cfg);
    let head = store.version();
    assert_eq!(records.len() as u64, head, "writers install every version");

    // eager: already at the head, equal to a from-scratch evaluation
    let (v, rel) = store.view("hot").unwrap();
    assert_eq!(v, head, "eager views read at the commit head");
    assert_rows_equal(&rel, &hot_query(), &store.snapshot(), "eager at head");
    let stats = store.view_stats("hot").unwrap();
    assert_eq!(stats.deltas_applied, head, "one delta per commit");
    assert_eq!(stats.fallback_recomputes, 0, "point writes never fall back");

    // manual: versioned refresh equals time travel, at every version
    for v in 1..=head {
        let reached = store.refresh_views_to(v).unwrap();
        assert_eq!(reached, v, "contiguous history refreshes exactly to v");
        let (vw, rel) = store.view("by_state").unwrap();
        assert_eq!(vw, v);
        let past = store.as_of(v).unwrap();
        assert_rows_equal(&rel, &by_state_query(), &past, &format!("refresh_to({v})"));
    }
}

#[test]
fn views_stay_equivalent_under_contended_writers() {
    let store = retail_store(&RetailConfig::small());
    run_and_check(&store, &mixed_config());
}

#[test]
fn views_stay_equivalent_under_injected_faults() {
    let store = retail_store(&RetailConfig::small());
    let cfg = mixed_config();
    let n_commits = (cfg.threads * cfg.ops_per_thread) as u64;

    let plan = FaultPlan::new();
    for v in (0..n_commits).step_by(3) {
        plan.force_conflict_at(v);
    }
    for v in [1, 5, 11] {
        plan.delay_before_cas_at(v, Duration::from_micros(200));
    }
    store.install_fault_plan(Arc::clone(&plan));

    run_and_check(&store, &cfg);

    assert!(
        plan.injected_conflicts() > 0,
        "the fault plan must actually have fired"
    );
}

#[test]
fn views_registered_at_different_versions_share_each_commits_delta() {
    let store = retail_store(&RetailConfig::small());
    let phase = |seed: u64| {
        let cfg = MixedConfig {
            threads: threads(),
            ops_per_thread: 24 / threads().max(1),
            seed,
            skew: 0.9,
        };
        run_writers(&store, &cfg);
        store.version()
    };
    // no view yet: these commits build no delta and leave nothing behind
    let v_a = phase(1);
    assert_eq!(store.register_view("hot", hot_query()).unwrap(), v_a);
    let v_b = phase(2);
    let lagging = store
        .register_view_with("by_state", by_state_query(), RefreshMode::Manual)
        .unwrap();
    assert_eq!(lagging, v_b);
    let rich = hot_query().project(&["name", "credit"]);
    assert_eq!(store.register_view("rich", rich.clone()).unwrap(), v_b);
    let head = phase(3);
    assert!(head - v_b >= 16, "the manual view lags by {}", head - v_b);

    // the eager views rode every commit since their own registration
    for (name, plan, since) in [("hot", hot_query(), v_a), ("rich", rich, v_b)] {
        let (v, rel) = store.view(name).unwrap();
        assert_eq!(v, head, "{name}");
        assert_rows_equal(&rel, &plan, &store.snapshot(), name);
        let stats = store.view_stats(name).unwrap();
        assert_eq!(
            stats.deltas_applied,
            head - since,
            "{name}: one delta per commit"
        );
        assert_eq!(stats.fallback_recomputes, 0, "{name}");
    }
    // the manual view stayed put, and every delta since waited for it
    assert_eq!(store.view("by_state").unwrap().0, v_b);
    for v in v_b + 1..=head {
        assert_eq!(store.refresh_views_to(v).unwrap(), v);
        let (at, rel) = store.view("by_state").unwrap();
        assert_eq!(at, v);
        let past = store.as_of(v).unwrap();
        assert_rows_equal(
            &rel,
            &by_state_query(),
            &past,
            &format!("late refresh_to({v})"),
        );
    }
}

#[test]
fn registration_mid_stream_starts_consistent() {
    let store = retail_store(&RetailConfig::small());
    let cfg = MixedConfig {
        threads: threads(),
        ops_per_thread: 60 / threads().max(1),
        seed: 777,
        skew: 0.9,
    };
    // register from a racing thread while writers are mid-run
    let registered_at = std::thread::scope(|s| {
        let store2 = Arc::clone(&store);
        let reg = s.spawn(move || {
            // land somewhere inside the writer run
            std::thread::sleep(Duration::from_millis(2));
            store2.register_view("late", hot_query()).unwrap()
        });
        run_writers(&store, &cfg);
        reg.join().expect("registration thread")
    });
    let head = store.version();
    assert!(registered_at <= head);
    // after the run the late view has caught up to the head and agrees
    // with a fresh evaluation
    let (v, rel) = store.view("late").unwrap();
    assert_eq!(v, head);
    assert_rows_equal(&rel, &hot_query(), &store.snapshot(), "late registration");
}

#[test]
fn a_view_behind_a_short_ring_is_rebuilt() {
    let base = retail_store(&RetailConfig::small()).snapshot();
    let config = StoreConfig {
        history_capacity: 2,
        ..StoreConfig::default()
    };
    let store = Store::with_config(base, config);
    store.register_view("hot", hot_query()).unwrap();
    store
        .register_view_with("by_state", by_state_query(), RefreshMode::Manual)
        .unwrap();
    run_writers(&store, &mixed_config());
    let head = store.version();

    let (v, rel) = store.view("hot").unwrap();
    assert_eq!(v, head, "the eager view reaches the head");
    assert_rows_equal(&rel, &hot_query(), &store.snapshot(), "eager, short ring");

    let oldest = store.history().oldest().unwrap();
    let below = oldest - 1;
    let err = store.refresh_views_to(below).unwrap_err();
    assert!(
        matches!(
            err,
            FdmError::VersionEvicted { version, oldest: Some(o), newest: Some(n) }
                if (version, o, n) == (below, oldest, head)
        ),
        "{err:?}"
    );
    assert_eq!(store.view("by_state").unwrap().0, 0, "nothing moved");

    assert_eq!(store.refresh_views_to(head).unwrap(), head);
    let (v, rel) = store.view("by_state").unwrap();
    assert_eq!(v, head);
    let at_head = store.as_of(head).unwrap();
    assert_rows_equal(&rel, &by_state_query(), &at_head, "manual, short ring");
    let stats = store.view_stats("by_state").unwrap();
    assert!(stats.fallback_recomputes >= 1, "{stats:?}");
}
