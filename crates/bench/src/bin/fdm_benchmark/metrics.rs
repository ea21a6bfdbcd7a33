//! The metric vocabulary: every name the benchmark prints, with its unit,
//! direction, regression bound, the workloads it is measured on, and — for
//! per-layer metrics — the end-to-end number it is predicted to move.
//! `BENCHMARK.json` lists the same names (a test keeps the two in step);
//! later issues refer to metrics by these names.

pub const SERVE_READ: &str = "serve_read";
pub const SERVE_WRITE: &str = "serve_write_durable";
pub const FQL_QUERY: &str = "fql_query";
pub const VIEW_COMMIT: &str = "view_commit";

pub const WORKLOADS: [&str; 4] = [SERVE_READ, SERVE_WRITE, FQL_QUERY, VIEW_COMMIT];

const ALL: &[&str] = &WORKLOADS;
const SERVE: &[&str] = &[SERVE_READ, SERVE_WRITE];
const READ: &[&str] = &[SERVE_READ];
const WRITE: &[&str] = &[SERVE_WRITE];
const COMMITTING: &[&str] = &[SERVE_WRITE, VIEW_COMMIT];
const FQL: &[&str] = &[FQL_QUERY];
const VIEW: &[&str] = &[VIEW_COMMIT];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// it counts as a regression; 0 for per-layer metrics, which have none.
    pub bound: f64,
    /// Workloads whose operations enter this call. Elsewhere the run
    /// reports 0: the layer is idle there.
    pub on: &'static [&'static str],
    /// Per-layer only: the end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        on: ALL,
        moves: "",
    }
}

/// Measured on every workload by the untraced run; these are the metrics
/// `BENCHMARK.json` lists under `end_to_end`.
pub const END_TO_END: [Metric; 4] = [
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_p50_us", "us", Lower, 0.25),
    e2e("op_tail_us", "us", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

const fn class(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    on: &'static [&'static str],
) -> Metric {
    Metric {
        name,
        unit,
        better: Lower,
        bound,
        on,
        moves: "",
    }
}

/// End-to-end per operation class, measured by both runs on the workloads
/// that have the class. They carry bounds for `--repeat` and for A/B
/// comparisons, but `BENCHMARK.json` lists them under `per_layer`: its
/// `end_to_end` list must be measured on every workload.
pub const CLASS: [Metric; 14] = [
    class("read_p50_us", "us", 0.15, SERVE),
    class("read_p99_us", "us", 0.15, SERVE),
    class("scan_p50_us", "us", 0.15, SERVE),
    class("commit_p50_us", "us", 0.15, COMMITTING),
    class("commit_p99_us", "us", 0.15, COMMITTING),
    class("flush_p50_us", "us", 0.15, WRITE),
    class("checkpoint_s", "s", 0.25, WRITE),
    class("reopen_s", "s", 0.25, WRITE),
    class("q_filter_ms", "ms", 0.15, FQL),
    class("q_gsets_ms", "ms", 0.15, FQL),
    class("q_join_ms", "ms", 0.15, FQL),
    class("q_subdb_ms", "ms", 0.15, FQL),
    class("q_chain_ms", "ms", 0.15, FQL),
    class("q_setops_ms", "ms", 0.15, FQL),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        on,
        moves,
    }
}

const READ_PATH: &str = "read_p50_us, scan_p50_us @ serve_read";
const COMMIT_PATH: &str = "commit_p50_us @ serve_write_durable";
const BULK_PATH: &str = "q_join_ms, q_setops_ms @ fql_query; setup_s";
const FILTER_PATH: &str = "q_filter_ms @ fql_query";
const VIEW_PATH: &str = "commit_p50_us @ view_commit";
const WRITE_PATH: &str = "commit_p50_us, flush_p50_us, ops_per_s @ serve_write_durable";
const DISK_PATH: &str = "commit_p50_us, checkpoint_s, reopen_s @ serve_write_durable";
const NONE: &str = "none: describes the harness or the machine";

/// From the traced run only.
pub const LAYER: [Metric; 72] = [
    // fdm-storage, called on `rel.stored_map()`
    layer("storage.pmap_get_ns", "ns", Lower, SERVE, READ_PATH),
    layer("storage.pmap_height", "count", Lower, SERVE, READ_PATH),
    layer(
        "storage.pmap_range_ns_per_row",
        "ns",
        Lower,
        SERVE,
        READ_PATH,
    ),
    layer(
        "storage.pmap_insert_ns",
        "ns",
        Lower,
        COMMITTING,
        COMMIT_PATH,
    ),
    layer(
        "storage.from_sorted_ns_per_entry",
        "ns",
        Lower,
        FQL,
        BULK_PATH,
    ),
    layer(
        "storage.merge_union_ns_per_entry",
        "ns",
        Lower,
        FQL,
        BULK_PATH,
    ),
    // fdm-core
    layer("core.resolve_relation_ns", "ns", Lower, SERVE, READ_PATH),
    layer("core.lookup_ns", "ns", Lower, SERVE, READ_PATH),
    layer("core.range_ns_per_row", "ns", Lower, SERVE, READ_PATH),
    layer("core.with_attr_ns", "ns", Lower, COMMITTING, COMMIT_PATH),
    layer(
        "core.data_key_ns",
        "ns",
        Lower,
        FQL,
        "q_setops_ms, q_subdb_ms @ fql_query",
    ),
    layer(
        "core.builder_ns_per_row",
        "ns",
        Lower,
        FQL,
        "q_setops_ms, q_subdb_ms @ fql_query",
    ),
    layer("core.delta_between_us", "us", Lower, VIEW, VIEW_PATH),
    // fdm-expr
    layer("expr.parse_us", "us", Lower, FQL, FILTER_PATH),
    layer("expr.bind_us", "us", Lower, FQL, FILTER_PATH),
    layer("expr.eval_ns_per_row", "ns", Lower, FQL, FILTER_PATH),
    // fdm-fql
    layer("fql.optimize_filter_us", "us", Lower, FQL, FILTER_PATH),
    layer(
        "fql.optimize_chain_us",
        "us",
        Lower,
        FQL,
        "q_chain_ms @ fql_query",
    ),
    layer("fql.eval_filter_ms", "ms", Lower, FQL, FILTER_PATH),
    layer(
        "fql.grouping_sets_ms",
        "ms",
        Lower,
        FQL,
        "q_gsets_ms @ fql_query",
    ),
    layer("fql.join_ms", "ms", Lower, FQL, "q_join_ms @ fql_query"),
    layer(
        "fql.reduce_db_ms",
        "ms",
        Lower,
        FQL,
        "q_subdb_ms @ fql_query",
    ),
    layer(
        "fql.eval_chain_ms",
        "ms",
        Lower,
        FQL,
        "q_chain_ms @ fql_query",
    ),
    layer("fql.union_ms", "ms", Lower, FQL, "q_setops_ms @ fql_query"),
    layer("fql.minus_ms", "ms", Lower, FQL, "q_setops_ms @ fql_query"),
    layer(
        "fql.intersect_ms",
        "ms",
        Lower,
        FQL,
        "q_setops_ms @ fql_query",
    ),
    layer("fql.filter_rows_in", "count", Lower, FQL, FILTER_PATH),
    layer("fql.filter_rows_out", "count", Lower, FQL, FILTER_PATH),
    layer(
        "fql.join_rows_in",
        "count",
        Lower,
        FQL,
        "q_join_ms @ fql_query",
    ),
    layer(
        "fql.join_rows_out",
        "count",
        Lower,
        FQL,
        "q_join_ms @ fql_query",
    ),
    layer(
        "fql.chain_rows_in",
        "count",
        Lower,
        FQL,
        "q_chain_ms @ fql_query",
    ),
    layer(
        "fql.chain_rows_out",
        "count",
        Lower,
        FQL,
        "q_chain_ms @ fql_query",
    ),
    layer("fql.ivm_apply_us", "us", Lower, VIEW, VIEW_PATH),
    layer("fql.view_recompute_ms", "ms", Lower, VIEW, VIEW_PATH),
    layer("fql.ivm_fallback_ratio", "ratio", Lower, VIEW, VIEW_PATH),
    // fdm-txn
    layer(
        "txn.snapshot_ns",
        "ns",
        Lower,
        SERVE,
        "read_p50_us @ serve_read",
    ),
    layer(
        "txn.read_point_ns",
        "ns",
        Lower,
        SERVE,
        "read_p50_us @ serve_read",
    ),
    layer(
        "txn.read_front_ns",
        "ns",
        Lower,
        SERVE,
        "read_p50_us @ serve_read",
    ),
    layer(
        "txn.read_hot_ns",
        "ns",
        Lower,
        SERVE,
        "read_p50_us @ serve_read",
    ),
    layer(
        "txn.read_cold_ns",
        "ns",
        Lower,
        READ,
        "read_p50_us @ serve_read",
    ),
    layer("txn.begin_ns", "ns", Lower, COMMITTING, WRITE_PATH),
    layer("txn.stage_ns", "ns", Lower, COMMITTING, WRITE_PATH),
    layer("txn.commit_ns", "ns", Lower, COMMITTING, WRITE_PATH),
    layer(
        "txn.commit_attempts_mean",
        "count",
        Lower,
        COMMITTING,
        WRITE_PATH,
    ),
    layer("txn.conflict_ratio", "ratio", Lower, COMMITTING, WRITE_PATH),
    layer("txn.batch_us_per_txn", "us", Lower, WRITE, WRITE_PATH),
    layer("txn.as_of_ns", "ns", Lower, WRITE, WRITE_PATH),
    layer("txn.history_len", "count", Lower, COMMITTING, WRITE_PATH),
    layer("txn.log_len", "count", Lower, COMMITTING, WRITE_PATH),
    layer(
        "txn.view_commit_overhead_us",
        "us",
        Lower,
        VIEW,
        "commit_p50_us, ops_per_s @ view_commit",
    ),
    layer(
        "txn.refresh_us_per_commit",
        "us",
        Lower,
        VIEW,
        "commit_p50_us, ops_per_s @ view_commit",
    ),
    layer(
        "txn.view_read_ns",
        "ns",
        Lower,
        VIEW,
        "commit_p50_us, ops_per_s @ view_commit",
    ),
    // fdm-durability, observed through `Store`
    layer(
        "durability.create_s",
        "s",
        Lower,
        WRITE,
        "setup_s @ serve_write_durable",
    ),
    layer(
        "durability.wal_bytes_per_commit",
        "bytes",
        Lower,
        WRITE,
        DISK_PATH,
    ),
    layer(
        "durability.append_us_per_commit",
        "us",
        Lower,
        WRITE,
        DISK_PATH,
    ),
    layer(
        "durability.fsync_us_per_commit",
        "us",
        Lower,
        WRITE,
        DISK_PATH,
    ),
    layer("durability.sync_wal_us", "us", Lower, WRITE, DISK_PATH),
    layer("durability.checkpoint_mb", "MiB", Lower, WRITE, DISK_PATH),
    layer(
        "durability.checkpoint_mb_per_s",
        "MiB/s",
        Higher,
        WRITE,
        DISK_PATH,
    ),
    layer("durability.checkpoint_load_s", "s", Lower, WRITE, DISK_PATH),
    layer(
        "durability.replay_commits_per_s",
        "1/s",
        Higher,
        WRITE,
        DISK_PATH,
    ),
    layer(
        "durability.verify_integrity_s",
        "s",
        Lower,
        WRITE,
        DISK_PATH,
    ),
    layer(
        "durability.default_policy_ops_per_s",
        "1/s",
        Higher,
        WRITE,
        DISK_PATH,
    ),
    layer(
        "durability.default_policy_stall_ms",
        "ms",
        Lower,
        WRITE,
        DISK_PATH,
    ),
    // the harness and the process
    layer("harness.timer_overhead_ns", "ns", Lower, ALL, NONE),
    layer(
        "harness.gen_ns_per_op",
        "ns",
        Lower,
        ALL,
        "ops_per_s @ serve_read",
    ),
    layer("harness.calib_btree_get_ns", "ns", Lower, ALL, NONE),
    layer("harness.trace_overhead_pct", "%", Lower, ALL, NONE),
    layer(
        "harness.max_stall_ms",
        "ms",
        Lower,
        ALL,
        "ops_per_s, on every workload",
    ),
    layer("process.peak_rss_mb", "MiB", Lower, ALL, NONE),
    layer("process.cpu_user_s", "s", Lower, ALL, NONE),
    layer("process.cpu_sys_s", "s", Lower, ALL, NONE),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(&CLASS)
        .chain(&LAYER)
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&CLASS).chain(&LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(!m.on.is_empty() && m.on.iter().all(|w| WORKLOADS.contains(w)));
            assert!((0.0..=0.25).contains(&m.bound));
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
        assert!(CLASS.len() + LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` at the repo root must describe exactly these tables.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|d| d.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the manifest dir");
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let listed = |key: &str| -> Vec<Json> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items.clone(),
                other => panic!("{key} is not an array: {other:?}"),
            }
        };
        let workloads: Vec<String> = listed("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let check = |items: Vec<Json>, table: Vec<&Metric>, bounded: bool| {
            assert_eq!(items.len(), table.len());
            for (item, m) in items.iter().zip(table) {
                assert_eq!(item.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(
                    item.get("unit").and_then(Json::as_str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                assert_eq!(
                    item.get("better").and_then(Json::as_str),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                assert_eq!(
                    item.get("bound").and_then(Json::as_f64),
                    bounded.then_some(m.bound),
                    "{}",
                    m.name
                );
            }
        };
        check(listed("end_to_end"), END_TO_END.iter().collect(), true);
        check(
            listed("per_layer"),
            CLASS.iter().chain(&LAYER).collect(),
            false,
        );
    }
}
