//! `fdm_benchmark` — the repo's benchmark: four long-running workloads,
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced one. See `README.md` beside this file for the metric glossary,
//! the layer → end-to-end → workload table and how to read a trace.
//!
//! ```text
//! fdm_benchmark --workload <name|all> --seed <n> [--seconds <s>] [--trace [0|1]]
//!               [--repeat <k>] [--smoke] [--out <dir>]
//! ```
//!
//! Every metric is printed as `workload metric value unit`; the last line
//! of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` holding the end-to-end
//! metrics (untraced) or the per-layer metrics (traced). The run also
//! writes `<workload>.json` (traced: `trace_<workload>.json`) under
//! `fdm_benchmark/` in the Cargo target directory it was built into.

mod data;
mod fql;
mod gen;
mod harness;
mod hist;
mod host;
mod json;
mod metrics;
mod probes;
mod serve;
mod trace;

use harness::{Config, Outcome};
use json::Json;
use metrics::{Metric, CLASS, END_TO_END, LAYER, WORKLOADS};
use std::path::{Path, PathBuf};

/// Engine switches the harness clears so the engine runs at its defaults:
/// a fast path that is not on by default is not what this measures.
const ENGINE_ENV: [&str; 5] = [
    "THREADS",
    "FDM_THREADS",
    "FDM_PAR_CUTOFF",
    "FDM_PLAN_REORDER",
    "FDM_JOIN_COST",
];

const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 0.2;
/// Set-up is repeated this often per run; `setup_s` is the median.
const SETUPS: usize = 3;

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: Option<usize>,
    smoke: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: fdm_benchmark --workload <{}|all> [--seed <n>] [--seconds <s>] \
         [--trace [0|1]] [--repeat <k>] [--smoke] [--out <dir>]",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: false,
        repeat: None,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workloads = match WORKLOADS.iter().find(|w| *w == name) {
                    Some(w) => vec![w],
                    None if name == "all" => WORKLOADS.to_vec(),
                    None => return Err(format!("unknown workload '{name}'\n{}", usage())),
                };
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--repeat" => {
                let k: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(2..=100).contains(&k) {
                    return Err("--repeat must be between 2 and 100".into());
                }
                args.repeat = Some(k);
            }
            "--out" => args.out = Some(PathBuf::from(value("a directory")?)),
            "--smoke" => args.smoke = true,
            "--trace" => {
                // a bare `--trace` turns tracing on; the driver passes 0 or 1
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if args.workloads.is_empty() {
        return Err(format!("--workload is required\n{}", usage()));
    }
    Ok(args)
}

fn run_workload(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let mut out = if cfg.workload == metrics::FQL_QUERY {
        fql::run(cfg)?
    } else {
        serve::run(cfg)?
    };
    // a value that is not a number cannot be compared with anything
    let bad: Vec<&str> = out
        .metrics
        .iter()
        .filter(|(_, r)| !r.value.is_finite())
        .map(|(name, _)| *name)
        .collect();
    out.check("every_metric_is_finite", bad.is_empty(), bad.join(", "));
    for m in &END_TO_END {
        let positive = out.metrics.get(m.name).is_some_and(|r| r.value > 0.0);
        out.check(&format!("{}_is_measured", m.name), positive, "");
    }
    Ok(out)
}

/// The metrics of one tier as the result line wants them: every listed
/// name, 0 where this workload never enters the call.
fn tier_json<'a>(out: &Outcome, tier: impl Iterator<Item = &'a Metric>) -> Json {
    Json::obj(tier.map(|m| {
        (
            m.name,
            Json::obj([
                ("value", Json::Num(out.get(m.name))),
                ("unit", Json::str(m.unit)),
            ]),
        )
    }))
}

/// The last line of standard output.
fn result_line(cfg: &Config, out: &Outcome) -> Json {
    let metrics = if cfg.trace {
        tier_json(out, CLASS.iter().chain(&LAYER))
    } else {
        tier_json(out, END_TO_END.iter())
    };
    Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics),
    ])
}

/// The output file: the run's facts beside every number.
fn file_json(cfg: &Config, out: &Outcome) -> Json {
    let metrics = Json::obj(out.metrics.iter().map(|(name, r)| {
        let m = metrics::find(name);
        let mut fields = vec![
            ("value", Json::Num(r.value)),
            ("unit", Json::str(m.map_or("", |m| m.unit))),
            ("better", Json::str(m.map_or("", |m| m.better.as_str()))),
        ];
        if let Some(m) = m.filter(|m| m.bound > 0.0) {
            fields.push(("bound", Json::Num(m.bound)));
        }
        if let Some(m) = m.filter(|m| !m.moves.is_empty()) {
            let layer = m.name.split('.').next().unwrap_or(m.name);
            fields.push(("layer", Json::str(layer)));
            fields.push(("moves", Json::str(m.moves)));
        }
        if let Some(pct) = r.pct {
            fields.push(("percentile", Json::Num(pct)));
        }
        if let Some(n) = r.samples {
            fields.push(("samples", Json::Num(n as f64)));
        }
        (*name, Json::obj(fields))
    }));
    let checks = Json::Arr(
        out.checks
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", Json::str(&c.name)),
                    ("ok", Json::Bool(c.ok)),
                    ("detail", Json::str(&c.detail)),
                ])
            })
            .collect(),
    );
    let mut fields = vec![
        ("workload", Json::str(cfg.workload)),
        ("host", host::host_json()),
        ("seed", Json::Num(cfg.seed as f64)),
        ("traced", Json::Bool(cfg.trace)),
        ("smoke", Json::Bool(cfg.smoke)),
        (
            "windows",
            Json::obj([
                ("warmup_s", Json::Num(cfg.warmup_s())),
                ("measured_s", Json::Num(cfg.seconds)),
                ("setups", Json::Num(cfg.setups as f64)),
            ]),
        ),
    ];
    fields.extend(out.info.iter().map(|(k, v)| (*k, v.clone())));
    fields.extend([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("checks", checks),
        ("metrics", metrics),
        (
            "latency_percentiles_us",
            Json::obj(out.latencies.iter().cloned()),
        ),
    ]);
    if let Some(t) = &out.trace {
        let layers = trace::layer_self_ns(&t.by_name);
        fields.push((
            "trace",
            Json::obj([
                ("sample_every", Json::Num(t.sample_every as f64)),
                ("spans_total", Json::Num(t.spans_total as f64)),
                ("spans_dropped", Json::Num(t.spans_dropped as f64)),
                ("spans_written", Json::Num(t.sample.len() as f64)),
                (
                    // every layer is listed, so an idle one reads 0
                    "layer_self_ns",
                    Json::obj(
                        ["op", "txn", "core", "storage", "expr", "fql", "durability"]
                            .map(|l| (l, Json::Num(layers.get(l).copied().unwrap_or(0) as f64))),
                    ),
                ),
                (
                    "note",
                    Json::str(
                        "durability has no span of its own: the WAL append and fsync run \
                         inside txn.commit / txn.commit_batch and are split out by \
                         durability.append_us_per_commit and durability.fsync_us_per_commit",
                    ),
                ),
                (
                    "by_name",
                    Json::obj(t.by_name.iter().map(|(name, s)| {
                        (
                            *name,
                            Json::obj([
                                ("count", Json::Num(s.count as f64)),
                                ("total_ns", Json::Num(s.total_ns as f64)),
                                ("self_ns", Json::Num(s.self_ns as f64)),
                            ]),
                        )
                    })),
                ),
                (
                    "spans",
                    Json::Arr(t.sample.iter().map(trace::span_json).collect()),
                ),
            ]),
        ));
    }
    Json::obj(fields)
}

fn output_path(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join(if trace {
        format!("trace_{workload}.json")
    } else {
        format!("{workload}.json")
    })
}

/// Runs one workload in this process; prints its metrics and result line.
fn run_and_report(cfg: &Config) -> Result<bool, String> {
    let out = run_workload(cfg)?;
    for (name, r) in &out.metrics {
        let unit = metrics::find(name).map_or("", |m| m.unit);
        println!("{} {name} {} {unit}", cfg.workload, r.value);
    }
    for c in out.checks.iter().filter(|c| !c.ok) {
        eprintln!("{} CHECK FAILED {}: {}", cfg.workload, c.name, c.detail);
    }
    let path = output_path(&cfg.out_dir, cfg.workload, cfg.trace);
    std::fs::write(&path, file_json(cfg, &out).render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{} attempted {} count", cfg.workload, out.attempted);
    println!("{} failed {} count", cfg.workload, out.failed);
    println!("{}", result_line(cfg, &out).render());
    Ok(out.correct())
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// `--repeat k`: each workload `k` times in fresh child processes, one
/// seed each; per end-to-end metric the median, quartiles and spread, and
/// whether the two halves of the runs agree within the metric's bound.
fn repeat(args: &Args, k: usize, out_root: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut agree = true;
    for workload in &args.workloads {
        let mut runs: Vec<Json> = Vec::with_capacity(k);
        for j in 0..k {
            let dir = out_root.join(format!("repeat-{j}"));
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &(args.seed + j as u64).to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&dir)
                .stdout(std::process::Stdio::null());
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| format!("spawning a run: {e}"))?;
            if !status.success() {
                return Err(format!("{workload} run {j} exited with {status}"));
            }
            let path = output_path(&dir, workload, args.trace);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            runs.push(Json::parse(&text)?);
            eprintln!("{workload}: run {} of {k} done", j + 1);
        }
        println!(
            "{workload}: {k} runs, seeds {}..{}",
            args.seed,
            args.seed + k as u64 - 1
        );
        println!(
            "  {:<16} {:>14} {:>14} {:>14} {:>8} {:>8}  verdict",
            "metric", "median", "q1", "q3", "spread", "halves"
        );
        for m in END_TO_END.iter().chain(&CLASS) {
            if !m.on.contains(workload) {
                continue;
            }
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(m.name)?.get("value")?.as_f64())
                .collect();
            if values.len() != k {
                return Err(format!("{workload}: {} missing from a run", m.name));
            }
            let half_median = |half: &[f64]| quartiles_or_value(&sorted(half.to_vec()))[1];
            let (a, b) = values.split_at(k / 2);
            let (ma, mb) = (half_median(a), half_median(b));
            let halves = (ma - mb).abs() / ma.min(mb).max(f64::MIN_POSITIVE);
            let all = sorted(values);
            let [q1, q2, q3] = quartiles_or_value(&all);
            let spread = (q3 - q1) / q2.max(f64::MIN_POSITIVE);
            let ok = halves <= m.bound;
            agree &= ok;
            println!(
                "  {:<16} {:>14.4} {:>14.4} {:>14.4} {:>7.1}% {:>7.1}%  {} (bound {:.0}%)",
                m.name,
                q2,
                q1,
                q3,
                spread * 100.0,
                halves * 100.0,
                if !ok {
                    "HALVES DISAGREE"
                } else if spread > m.bound {
                    "spread above bound"
                } else {
                    "ok"
                },
                m.bound * 100.0
            );
        }
    }
    Ok(agree)
}

/// Quartiles of two or more values; a single value is its own quartiles.
fn quartiles_or_value(sorted: &[f64]) -> [f64; 3] {
    match sorted {
        [] => [0.0; 3],
        [v] => [*v; 3],
        _ => quartiles(sorted),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    for name in ENGINE_ENV {
        std::env::remove_var(name);
    }
    let out_root = args.out.clone().unwrap_or_else(host::out_root);
    let verdict = match args.repeat {
        Some(k) => repeat(&args, k, &out_root),
        None => args.workloads.iter().try_fold(true, |ok, workload| {
            let clients = serve::clients_of(workload);
            if clients > host::cpus() {
                return Err(format!(
                    "{workload} drives {clients} closed-loop clients but this host has {} CPU(s); \
                     a client without a CPU of its own measures the scheduler",
                    host::cpus()
                ));
            }
            let cfg = Config {
                workload,
                seed: args.seed,
                seconds: args.seconds.unwrap_or(if args.smoke {
                    SMOKE_SECONDS
                } else {
                    DEFAULT_SECONDS
                }),
                trace: args.trace,
                smoke: args.smoke,
                setups: if args.smoke { 1 } else { SETUPS },
                out_dir: out_root.clone(),
            };
            Ok(run_and_report(&cfg)? && ok)
        }),
    };
    match verdict {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("fdm_benchmark: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload serve_read --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.workloads, ["serve_read"]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), false));
        let a = parse_args(&argv("--workload fql_query --trace 1 --seed 3")).unwrap();
        assert!(a.trace && a.seed == 3);
        let a = parse_args(&argv("--trace --workload all --repeat 6")).unwrap();
        assert!(a.trace);
        assert_eq!(a.workloads, WORKLOADS);
        assert_eq!(a.repeat, Some(6));
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload all --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload all --bogus")).is_err());
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4)
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 3], n=4)
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles_or_value(&[4.0]), [4.0; 3]);
    }

    fn smoke(workload: &'static str, trace: bool) -> (Config, Outcome) {
        let cfg = Config {
            workload,
            seed: 11,
            seconds: SMOKE_SECONDS,
            trace,
            smoke: true,
            setups: 1,
            out_dir: host::out_root().join(format!(
                "test-{}-{workload}-{}",
                std::process::id(),
                u8::from(trace)
            )),
        };
        let out = run_workload(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
        (cfg, out)
    }

    fn assert_clean(cfg: &Config, out: &Outcome) {
        for c in &out.checks {
            assert!(
                c.ok,
                "{}: check {} failed: {}",
                cfg.workload, c.name, c.detail
            );
        }
        assert_eq!(out.failed, 0, "{}", cfg.workload);
        assert!(out.attempted > 0 && out.correct());
        // both renderings parse, and the result line has exactly the
        // contract's keys and this tier's metrics
        let line = Json::parse(&result_line(cfg, out).render()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let listed = line.get("metrics").unwrap().fields().len();
        let want = if cfg.trace {
            CLASS.len() + LAYER.len()
        } else {
            END_TO_END.len()
        };
        assert_eq!(listed, want);
        let file = Json::parse(&file_json(cfg, out).render()).unwrap();
        for key in [
            "host",
            "clients",
            "scale",
            "windows",
            "seed",
            "flush_policy",
        ] {
            assert!(
                file.get(key).is_some(),
                "{}: file lacks {key}",
                cfg.workload
            );
        }
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    /// Every metric the tables say this workload measures is reported, and
    /// nothing the tables say it does not enter is.
    fn assert_tier(cfg: &Config, out: &Outcome, tier: &[Metric]) {
        for m in tier {
            let reported = out.metrics.contains_key(m.name);
            assert_eq!(
                reported,
                m.on.contains(&cfg.workload),
                "{}: {} reported = {reported}",
                cfg.workload,
                m.name
            );
        }
    }

    #[test]
    fn smoke_pass_of_all_four_workloads() {
        for workload in WORKLOADS {
            let (cfg, out) = smoke(workload, false);
            assert_tier(&cfg, &out, &END_TO_END);
            assert_tier(&cfg, &out, &CLASS);
            assert_clean(&cfg, &out);
        }
    }

    #[test]
    fn traced_smoke_reports_every_per_layer_metric_on_its_workloads() {
        for workload in WORKLOADS {
            let (cfg, out) = smoke(workload, true);
            assert_tier(&cfg, &out, &CLASS);
            assert_tier(&cfg, &out, &LAYER);
            let t = out.trace.as_ref().expect("a traced run keeps its spans");
            assert!(t.spans_total > 0 && !t.sample.is_empty());
            // the layers a workload never enters stay idle in its trace
            let layers = trace::layer_self_ns(&t.by_name);
            let idle: &[&str] = match workload {
                metrics::FQL_QUERY => &["txn", "durability"],
                _ => &["fql", "expr", "durability"],
            };
            for layer in idle {
                assert!(
                    !layers.contains_key(layer),
                    "{workload}: {layer} is not idle"
                );
            }
            assert_clean(&cfg, &out);
        }
    }
}
