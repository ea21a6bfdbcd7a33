//! `fql_query`: one client looping a fixed script of FQL queries over an
//! immutable snapshot. All the time is in `fdm-expr`, the `fdm-fql`
//! operators and optimizer, and the `fdm-core`/`fdm-storage` bulk builders;
//! `Store`, the WAL and view maintenance are never touched.
//!
//! One pass is 8 × filter, 2 × gsets, and one each of join, subdb, chain
//! and setops, with the `$param` values drawn from the seed.

use crate::data;
use crate::gen::query_params;
use crate::harness::{timed_s, BlockTimer, Config, Outcome, TraceOut};
use crate::hist::{median, Hist};
use crate::json::Json;
use crate::probes;
use crate::trace::{self, span, Tracer};
use fdm_core::{DatabaseF, RelationBuilder, RelationF, TupleF, Value};
use fdm_expr::Params;
use fdm_fql::{AggSpec, GroupingSpec, Query};
use fdm_relational::{Agg, Cell, GroupingSet};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

const STATES: [&str; 6] = ["NY", "CA", "TX", "WA", "MA", "IL"];
const FILTERS_PER_PASS: u64 = 8;
const GSETS_PER_PASS: u64 = 2;
const QUERIES_PER_PASS: u64 = FILTERS_PER_PASS + GSETS_PER_PASS + 4;
const FILTER_TEXT: &str = "age > $a and state == $s";
/// The filter tail reported when the samples support it: the default window
/// fits about 110 filter queries, which leaves 22 beyond p80.
const TAIL_PCT: f64 = 80.0;

#[derive(Clone, Copy)]
enum Class {
    Filter = 0,
    Gsets = 1,
    Join = 2,
    Subdb = 3,
    Chain = 4,
    Setops = 5,
}
const CLASS_METRICS: [&str; 6] = [
    "q_filter_ms",
    "q_gsets_ms",
    "q_join_ms",
    "q_subdb_ms",
    "q_chain_ms",
    "q_setops_ms",
];

/// Everything the script reads; built once, never written.
struct Fixture {
    both: fdm_bench::BothEngines,
    /// The retail DB after 50 upserts and 50 deletes (Fig. 9's other side).
    changed: DatabaseF,
    chain: DatabaseF,
    chain_rows: i64,
}

fn fig8_specs() -> [GroupingSpec; 3] {
    [
        GroupingSpec::new("age_cc", &["age"], &[("count", AggSpec::Count)]),
        GroupingSpec::new(
            "state_age_cc",
            &["state", "age"],
            &[("count", AggSpec::Count)],
        ),
        GroupingSpec::new("global_min", &[], &[("min", AggSpec::Min("age".into()))]),
    ]
}

fn build(orders: usize, chain_rows: usize) -> Result<Fixture, String> {
    let fdm = |e: fdm_core::FdmError| e.to_string();
    let both = fdm_bench::both(&fdm_bench::standard_config(orders));
    let n = both.data.customers.len() as i64;
    let mut changed = both.fdm.clone();
    for i in 0..50i64 {
        changed = fdm_fql::db_upsert(
            &changed,
            "customers",
            Value::Int(1_000_000 + i),
            TupleF::builder("c")
                .attr("name", format!("new{i}"))
                .attr("age", 20 + i)
                .attr("state", "NV")
                .build(),
        )
        .map_err(fdm)?;
        // the generator's inactive tail: customers no order refers to
        changed = fdm_fql::db_delete(&changed, "customers", &Value::Int(n - i)).map_err(fdm)?;
    }
    Ok(Fixture {
        both,
        changed,
        chain: fdm_fql::testutil::chain_db_scaled(chain_rows, data::CHAIN_FANOUT),
        chain_rows: chain_rows as i64,
    })
}

fn filter_params(age: i64, state: usize) -> Params {
    Params::new().set("a", age).set("s", STATES[state])
}

fn chain_query(cut: i64) -> Query {
    // the fig13 three-join chain with a constant-foldable conjunct
    Query::scan("base")
        .join("a", "ak", "k")
        .join("b", "a.av", "k2")
        .join("c", "ck", "k3")
        .filter("2 > 1 and ck <= $c", Params::new().set("c", cut))
}

struct Script {
    seed: u64,
    hists: Vec<Hist>,
    attempted: u64,
    failed: u64,
    /// Queries whose row count disagrees with the data.
    wrong: u64,
    /// The longest single query of the measured passes.
    longest_ns: u64,
    tracer: Option<Tracer>,
    /// Row counts of the last traced filter, join and chain.
    rows_out: [usize; 3],
}

impl Script {
    /// Times one query, files it under `class`, and checks its row count.
    fn query(
        &mut self,
        class: Class,
        record: bool,
        want_rows: Option<usize>,
        run: impl FnOnce(&mut Option<Tracer>) -> fdm_core::Result<usize>,
    ) {
        let t0 = Instant::now();
        let rows = run(&mut self.tracer);
        let ns = t0.elapsed().as_nanos() as u64;
        self.attempted += 1;
        match rows {
            Ok(n) if want_rows.is_none_or(|w| w == n) => {}
            Ok(_) => self.wrong += 1,
            Err(_) => self.failed += 1,
        }
        if record {
            self.hists[class as usize].record(ns);
            self.longest_ns = self.longest_ns.max(ns);
        }
    }

    /// One pass of the script. A traced pass runs every query through its
    /// decomposed path, each step a span.
    fn pass(&mut self, fx: &Fixture, pass: u64, record: bool, traced: bool) {
        let db = &fx.both.fdm;
        let open = |tr: &mut Option<Tracer>, name: &'static str, k: u64| match tr.as_mut() {
            Some(t) if traced => Some(t.open(name, pass * QUERIES_PER_PASS + k)),
            _ => None,
        };
        let close = |tr: &mut Option<Tracer>, root: Option<u32>| {
            if let (Some(t), Some(root)) = (tr.as_mut(), root) {
                t.close(root);
            }
        };
        for k in 0..FILTERS_PER_PASS {
            let p = query_params(self.seed, pass, k, fx.chain_rows);
            let want = fx
                .both
                .data
                .customers
                .iter()
                .filter(|(_, _, age, state)| *age > p.age && *state == STATES[p.state])
                .count();
            let mut rows_out = 0;
            self.query(Class::Filter, record && !traced, Some(want), |tr| {
                let root = open(tr, "op.filter", k);
                // text parse + bind + optimizer + pipeline: the paper's
                // injection-free costume, paid in full on every call
                let expr = span(tr, root, "expr.parse", || fdm_expr::parse(FILTER_TEXT));
                let bound = span(tr, root, "expr.bind", || {
                    expr.and_then(|e| filter_params(p.age, p.state).bind(&e))
                })
                .map_err(fdm_core::FdmError::from)?;
                let plan = span(tr, root, "fql.optimize_filter", || {
                    Query::scan("customers")
                        .filter_expr(bound)
                        .project(&["name", "age"])
                        .optimize_for(db)
                });
                let out = span(tr, root, "fql.eval_filter", || plan.eval(db));
                close(tr, root);
                rows_out = out.as_ref().map_or(0, RelationF::len);
                out.map(|r| r.len())
            });
            if traced {
                self.rows_out[0] = rows_out;
            }
        }
        for k in 0..GSETS_PER_PASS {
            self.query(Class::Gsets, record && !traced, Some(3), |tr| {
                let root = open(tr, "op.gsets", FILTERS_PER_PASS + k);
                let customers = span(tr, root, "core.resolve_relation", || {
                    db.relation("customers")
                })?;
                let out = span(tr, root, "fql.grouping_sets", || {
                    fdm_fql::grouping_sets(&customers, &fig8_specs())
                });
                close(tr, root);
                out.map(|sets| sets.len())
            });
        }
        let k = FILTERS_PER_PASS + GSETS_PER_PASS;
        let orders = fx.both.data.orders.len();
        let mut rows_out = 0;
        self.query(Class::Join, record && !traced, Some(orders), |tr| {
            let root = open(tr, "op.join", k);
            let out = span(tr, root, "fql.join", || fdm_fql::join(db));
            close(tr, root);
            rows_out = out.as_ref().map_or(0, RelationF::len);
            out.map(|r| r.len())
        });
        if traced {
            self.rows_out[1] = rows_out;
        }
        self.query(Class::Subdb, record && !traced, Some(db.len()), |tr| {
            let root = open(tr, "op.subdb", k + 1);
            let out = span(tr, root, "fql.reduce_db", || fdm_fql::reduce_db(db));
            close(tr, root);
            out.map(|d| d.len())
        });
        let cut = query_params(self.seed, pass, k + 2, fx.chain_rows).chain_cut;
        // every base row up to the cut fans out into CHAIN_FANOUT rows
        let want = cut.clamp(0, fx.chain_rows) as usize * data::CHAIN_FANOUT;
        self.query(Class::Chain, record && !traced, Some(want), |tr| {
            let root = open(tr, "op.chain", k + 2);
            let plan = span(tr, root, "fql.optimize_chain", || {
                chain_query(cut).optimize_for(&fx.chain)
            });
            let out = span(tr, root, "fql.eval_chain", || plan.eval(&fx.chain));
            close(tr, root);
            rows_out = out.as_ref().map_or(0, RelationF::len);
            out.map(|r| r.len())
        });
        if traced {
            self.rows_out[2] = rows_out;
        }
        self.query(Class::Setops, record && !traced, None, |tr| {
            let root = open(tr, "op.setops", k + 3);
            let u = span(tr, root, "fql.union", || fdm_fql::union(db, &fx.changed))?;
            let m = span(tr, root, "fql.minus", || fdm_fql::minus(db, &fx.changed))?;
            let i = span(tr, root, "fql.intersect", || {
                fdm_fql::intersect(db, &fx.changed)
            })?;
            close(tr, root);
            Ok(u.total_tuples() + m.total_tuples() + i.total_tuples())
        });
    }
}

/// First-pass results against the from-scratch relational engine on the
/// same data, outside every timing.
fn oracle_checks(fx: &Fixture, seed: u64, out: &mut Outcome) -> Result<(), String> {
    let fdm = |e: fdm_core::FdmError| e.to_string();
    let db = &fx.both.fdm;
    let rel = &fx.both.rel;
    let int = |c: &Cell| match c {
        Cell::Int(i) => *i,
        _ => i64::MIN,
    };

    // filter: the same key set
    let p = query_params(seed, 0, 0, fx.chain_rows);
    let ours: BTreeSet<i64> = Query::scan("customers")
        .filter(FILTER_TEXT, filter_params(p.age, p.state))
        .project(&["name", "age"])
        .optimize_for(db)
        .eval(db)
        .map_err(fdm)?
        .stored_keys()
        .iter()
        .map(|k| k.as_int("cid").unwrap_or(i64::MIN))
        .collect();
    let schema = rel.customers.schema();
    let (cid, age, state) = (
        schema.index_of("cid").ok_or("no cid column")?,
        schema.index_of("age").ok_or("no age column")?,
        schema.index_of("state").ok_or("no state column")?,
    );
    let theirs: BTreeSet<i64> = fdm_relational::select(&rel.customers, |_, row| {
        Some(
            int(&row[age]) > p.age
                && matches!(&row[state], Cell::Str(s) if **s == *STATES[p.state]),
        )
    })
    .rows()
    .iter()
    .map(|row| int(&row[cid]))
    .collect();
    out.check(
        "filter_equals_relational",
        ours == theirs,
        format!("{} vs {} rows", ours.len(), theirs.len()),
    );

    // join: the same (cid, pid) pairs
    let joined = fdm_fql::join(db).map_err(fdm)?;
    let mut ours: Vec<(i64, i64)> = Vec::with_capacity(joined.len());
    for (_, t) in joined.iter_stored() {
        let cid = t.get("customers.cid").or_else(|_| t.get("cid"));
        let pid = t.get("products.pid").or_else(|_| t.get("pid"));
        ours.push((
            cid.and_then(|v| v.as_int("cid")).map_err(fdm)?,
            pid.and_then(|v| v.as_int("pid")).map_err(fdm)?,
        ));
    }
    ours.sort_unstable();
    let theirs_rel = fdm_relational::hash_join(
        &fdm_relational::hash_join(&rel.orders, &rel.customers, "cid", "cid"),
        &rel.products,
        "pid",
        "pid",
    );
    let (cid, pid) = (
        theirs_rel.schema().index_of("cid").ok_or("no cid column")?,
        theirs_rel.schema().index_of("pid").ok_or("no pid column")?,
    );
    let mut theirs: Vec<(i64, i64)> = theirs_rel
        .rows()
        .iter()
        .map(|row| (int(&row[cid]), int(&row[pid])))
        .collect();
    theirs.sort_unstable();
    out.check(
        "join_equals_relational",
        ours == theirs,
        format!("{} vs {} rows", ours.len(), theirs.len()),
    );

    // grouping sets: three relations here, one NULL-padded relation there
    let customers = db.relation("customers").map_err(fdm)?;
    let sets = fdm_fql::grouping_sets(&customers, &fig8_specs()).map_err(fdm)?;
    let ours: usize = ["age_cc", "state_age_cc", "global_min"]
        .iter()
        .map(|name| sets.relation(name).map_or(0, |r| r.len()))
        .sum();
    let theirs = fdm_relational::grouping_sets(
        &rel.customers,
        &[
            GroupingSet {
                by: vec!["age".into()],
                aggs: vec![Agg::CountStar],
            },
            GroupingSet {
                by: vec!["state".into(), "age".into()],
                aggs: vec![Agg::CountStar],
            },
            GroupingSet {
                by: vec![],
                aggs: vec![Agg::Min("age".into())],
            },
        ],
    );
    let counted: i64 = sets
        .relation("age_cc")
        .map_err(fdm)?
        .iter_stored()
        .map(|(_, t)| t.get("count").and_then(|v| v.as_int("count")).unwrap_or(0))
        .sum();
    out.check(
        "gsets_equals_relational",
        ours == theirs.len() && counted == customers.len() as i64,
        format!(
            "{ours} vs {} groups; counts sum to {counted} of {}",
            theirs.len(),
            customers.len()
        ),
    );
    Ok(())
}

/// The bulk builders and the predicate evaluator the operators sit on,
/// timed alone on the customers relation.
fn bulk_probes(fx: &Fixture, timer: &BlockTimer, out: &mut Outcome) -> Result<(), String> {
    let fdm = |e: fdm_core::FdmError| e.to_string();
    let customers = fx.both.fdm.relation("customers").map_err(fdm)?;
    let entries = customers.tuples().map_err(fdm)?;
    let n = entries.len();
    let map = customers
        .stored_map()
        .ok_or("customers is not a stored map")?;
    let other = fx.changed.relation("customers").map_err(fdm)?;
    let other_map = other.stored_map().ok_or("customers is not a stored map")?;

    let mut per_entry: Vec<f64> = Vec::with_capacity(7);
    let mut per_merge: Vec<f64> = Vec::with_capacity(7);
    let mut per_row: Vec<f64> = Vec::with_capacity(7);
    for _ in 0..7 {
        let input = entries.clone();
        let (built, s) = timed_s(|| fdm_storage::PMap::from_sorted_vec(input));
        black_box(built.len());
        per_entry.push(s * 1e9 / n as f64);
        let (merged, s) = timed_s(|| map.merge_union(other_map));
        per_merge.push(s * 1e9 / (n + other_map.len()) as f64);
        black_box(merged.len());
        let input = entries.clone();
        let (built, s) = timed_s(|| {
            let mut b = RelationBuilder::new("customers", &["cid"]);
            for (k, t) in input {
                b.push_arc(k, t);
            }
            b.build()
        });
        built.map_err(fdm)?;
        per_row.push(s * 1e9 / n as f64);
    }
    out.set_n(
        "storage.from_sorted_ns_per_entry",
        median(&mut per_entry),
        7,
    );
    out.set_n(
        "storage.merge_union_ns_per_entry",
        median(&mut per_merge),
        7,
    );
    out.set_n("core.builder_ns_per_row", median(&mut per_row), 7);

    let blocks = (n / crate::harness::BLOCK).clamp(1, 64);
    let data_key = timer.per_call_ns(blocks, |i| {
        black_box(entries[i % n].1.compute_data_key().is_ok());
    });
    out.set_n(
        "core.data_key_ns",
        data_key,
        (blocks * crate::harness::BLOCK) as u64,
    );
    let pred = filter_params(40, 0)
        .bind(&fdm_expr::parse(FILTER_TEXT).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let eval = timer.per_call_ns(blocks, |i| {
        black_box(fdm_expr::eval_predicate(&pred, &entries[i % n].1).is_ok());
    });
    out.set_n(
        "expr.eval_ns_per_row",
        eval,
        (blocks * crate::harness::BLOCK) as u64,
    );
    Ok(())
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (orders, chain_rows) = if cfg.smoke {
        (data::SMOKE_FQL_ORDERS, data::SMOKE_CHAIN_ROWS)
    } else {
        (data::FQL_ORDERS, data::CHAIN_ROWS)
    };
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut script = Script {
        seed: cfg.seed,
        hists: (0..CLASS_METRICS.len()).map(|_| Hist::new()).collect(),
        attempted: 0,
        failed: 0,
        wrong: 0,
        longest_ns: 0,
        tracer: cfg.trace.then(|| Tracer::new(epoch, 100_000)),
        rows_out: [0; 3],
    };
    // set-up, repeated so `setup_s` is a median; the last fixture serves
    let mut setups = Vec::with_capacity(cfg.setups.max(1));
    let mut fixture: Option<Fixture> = None;
    for _ in 0..cfg.setups.max(1) {
        drop(fixture.take());
        let (fx, s) = timed_s(|| build(orders, chain_rows));
        setups.push(s);
        fixture = Some(fx?);
    }
    let fx = fixture.expect("at least one set-up");
    out.set_n("setup_s", median(&mut setups), setups.len() as u64);
    let fp = data::fingerprint(&fx.both.fdm)?;
    if !cfg.smoke {
        out.check(
            "dataset_fingerprint",
            fp == data::FQL_FINGERPRINT,
            format!("{fp:?}"),
        );
    }
    oracle_checks(&fx, cfg.seed, &mut out)?;

    // Passes run whole: warm-up until its share of the clock is spent, then
    // measured passes until the window's is; traced and untraced alternate.
    let mut pass_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let start = Instant::now();
    let mut pass = 0u64;
    loop {
        let now = start.elapsed().as_secs_f64();
        let measuring = now >= cfg.warmup_s();
        let measured = pass_s[0].len() + pass_s[1].len();
        // at least one measured pass of each kind, whatever the clock says
        let need = measured < if cfg.trace { 2 } else { 1 };
        if now >= cfg.warmup_s() + cfg.seconds && !need {
            break;
        }
        let traced = cfg.trace && measuring && measured % 2 == 0;
        let ((), s) = timed_s(|| script.pass(&fx, pass, measuring, traced));
        if measuring {
            pass_s[usize::from(traced)].push(s);
        }
        pass += 1;
    }

    out.attempted = script.attempted;
    out.failed = script.failed;
    out.check(
        "query_row_counts_match_the_data",
        script.wrong == 0,
        format!("{} queries returned the wrong number of rows", script.wrong),
    );
    // completions divided by the time they took: a stall costs what it cost
    let rate = |times: &[f64]| {
        (times.len() as u64 * QUERIES_PER_PASS) as f64 / times.iter().sum::<f64>().max(1e-12)
    };
    let all: Vec<f64> = pass_s.concat();
    out.set_n("ops_per_s", rate(&all), all.len() as u64 * QUERIES_PER_PASS);
    out.set("harness.max_stall_ms", script.longest_ns as f64 / 1e6);
    if cfg.trace {
        // traced passes time their queries in spans; file those under the
        // class histograms so both runs report the same class metrics
        let spans = script.tracer.as_ref().map_or(&[][..], Tracer::spans);
        for (class, root) in [
            "op.filter",
            "op.gsets",
            "op.join",
            "op.subdb",
            "op.chain",
            "op.setops",
        ]
        .iter()
        .enumerate()
        {
            for s in spans.iter().filter(|s| s.name == *root) {
                script.hists[class].record(s.dur());
            }
        }
    }
    for (name, h) in CLASS_METRICS.iter().zip(&script.hists) {
        out.set_p50(name, h, 1e6);
        out.latency_table(name, h);
    }
    let filter = &script.hists[Class::Filter as usize];
    out.set_p50("op_p50_us", filter, 1e3);
    out.set_tail("op_tail_us", filter, TAIL_PCT, 1e3);

    if let Some(tracer) = script.tracer.as_ref() {
        let timer = BlockTimer::calibrate();
        out.set(
            "harness.trace_overhead_pct",
            (1.0 - rate(&pass_s[1]) / rate(&pass_s[0])) * 100.0,
        );
        let spans = tracer.spans();
        for (metric, span, per) in [
            ("expr.parse_us", "expr.parse", 1e3),
            ("expr.bind_us", "expr.bind", 1e3),
            ("fql.optimize_filter_us", "fql.optimize_filter", 1e3),
            ("fql.optimize_chain_us", "fql.optimize_chain", 1e3),
            ("fql.eval_filter_ms", "fql.eval_filter", 1e6),
            ("fql.grouping_sets_ms", "fql.grouping_sets", 1e6),
            ("fql.join_ms", "fql.join", 1e6),
            ("fql.reduce_db_ms", "fql.reduce_db", 1e6),
            ("fql.eval_chain_ms", "fql.eval_chain", 1e6),
            ("fql.union_ms", "fql.union", 1e6),
            ("fql.minus_ms", "fql.minus", 1e6),
            ("fql.intersect_ms", "fql.intersect", 1e6),
        ] {
            let mut ns = trace::durations_of(spans, span);
            out.set_n(metric, median(&mut ns) / per, ns.len() as u64);
        }
        let db = &fx.both.fdm;
        let len = |name: &str| fx.chain.relation(name).map_or(0, |r| r.len());
        out.set("fql.filter_rows_in", fp.customers as f64);
        out.set("fql.filter_rows_out", script.rows_out[0] as f64);
        out.set("fql.join_rows_in", db.total_tuples() as f64);
        out.set("fql.join_rows_out", script.rows_out[1] as f64);
        out.set(
            "fql.chain_rows_in",
            (len("base") + len("a") + len("b") + len("c")) as f64,
        );
        out.set("fql.chain_rows_out", script.rows_out[2] as f64);
        bulk_probes(&fx, &timer, &mut out)?;
        let zipf = crate::gen::Zipf::new(fp.customers, 1.1);
        probes::harness(&mut out, &timer, &zipf, cfg.seed, |i| {
            black_box(query_params(cfg.seed, i as u64, 0, fx.chain_rows).age);
        });
        out.trace = Some(TraceOut {
            sample_every: 2,
            spans_total: spans.len() as u64 + tracer.dropped,
            spans_dropped: tracer.dropped,
            by_name: trace::self_times(spans),
            sample: spans.to_vec(),
        });
    }

    out.info.extend([
        ("clients", Json::Num(1.0)),
        (
            "scale",
            Json::obj(fp.json_fields().into_iter().chain([
                ("chain_base_rows", Json::Num(chain_rows as f64)),
                ("chain_fanout", Json::Num(data::CHAIN_FANOUT as f64)),
            ])),
        ),
        ("passes_measured", Json::Num(all.len() as f64)),
        ("queries_per_pass", Json::Num(QUERIES_PER_PASS as f64)),
        (
            "flush_policy",
            Json::str("none: immutable snapshot, no store"),
        ),
        (
            "loop",
            Json::str("closed: the client waits for every query to return"),
        ),
    ]);
    Ok(out)
}
