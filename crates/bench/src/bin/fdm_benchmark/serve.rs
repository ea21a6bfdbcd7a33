//! The three workloads that drive `fdm_txn::Store`: `serve_read`,
//! `serve_write_durable` and `view_commit`. They share one closed-loop
//! client — an application thread that waits for each call to return —
//! and differ in the op mix, the store they build, and what they check
//! and probe once the window closes.

use crate::data::{self, name_matches, relations_equal, scan_matches, total_credit, Scale};
use crate::gen::{self, ServeMix, ServeOp, Zipf, SCAN_LEN};
use crate::harness::{median_s, timed_s, BlockTimer, Config, Outcome, TraceOut, BLOCK};
use crate::hist::{median, Hist};
use crate::host;
use crate::json::Json;
use crate::metrics::{SERVE_READ, SERVE_WRITE};
use crate::probes;
use crate::trace::{self, span, Tracer};
use fdm_core::{FdmError, Value};
use fdm_fql::{AggSpec, Query};
use fdm_txn::{
    BatchPolicy, CommitPolicy, DurabilityConfig, Store, StoreConfig, SyncPolicy, Transaction,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Buffered writes are flushed through `commit_batch` this many at a time.
const FLUSH_AT: usize = 16;
/// `view_commit` reads the `by_state` view once per this many commits.
const VIEW_READ_EVERY: u64 = 16;
/// Retry budget of every commit the harness issues.
const MAX_ATTEMPTS: usize = 256;
/// The stated flush policy of `serve_write_durable`.
const GROUP_COMMIT: u64 = 64;
const FLUSH_POLICY: &str =
    "wal fsync: SyncPolicy::EveryN(64); checkpoints: explicit only (checkpoint_every = None)";

/// Span buffer per client; later spans are counted, not stored.
const SPAN_CAP: usize = 1_000_000;
/// Spans of client 0 written to the trace file verbatim.
const SPAN_SAMPLE: usize = 20_000;

/// Single commits made after the durable window, replayed by the reopen.
fn tail_commits(cfg: &Config) -> u64 {
    if cfg.smoke {
        300
    } else {
        50_000
    }
}

#[derive(Clone, Copy)]
enum Class {
    Read = 0,
    Scan = 1,
    Commit = 2,
    Flush = 3,
    ViewRead = 4,
}
const CLASSES: usize = 5;

struct Plan {
    /// The op shares and the client count.
    mix: ServeMix,
    scale: Scale,
    smoke_scale: Scale,
    durable: bool,
    views: bool,
    /// One op in this many is traced, on the traced slices.
    trace_every: u64,
    /// Slices of the window: a traced run traces the even ones, and the
    /// rates of the two kinds side by side are the tracing overhead.
    slices: usize,
    /// The percentile `op_tail_us` reports when the samples support it:
    /// the highest one that repeats between runs on this workload.
    tail_pct: f64,
}

fn plan_of(workload: &str) -> Plan {
    match workload {
        SERVE_READ => Plan {
            mix: gen::SERVE_READ_MIX,
            scale: data::SERVE_SCALE,
            smoke_scale: data::SMOKE_SCALE,
            durable: false,
            views: false,
            trace_every: 64,
            slices: 20,
            tail_pct: 99.0,
        },
        SERVE_WRITE => Plan {
            mix: gen::SERVE_WRITE_MIX,
            scale: data::SERVE_SCALE,
            smoke_scale: data::SMOKE_SCALE,
            durable: true,
            views: false,
            trace_every: 64,
            slices: 20,
            tail_pct: 99.0,
        },
        // One client: two writers convoy on the view catalog's lock and
        // make the commit median bimodal between runs. About 600 commits
        // fit the default window; ten seeds' p90 spread 25 % on a stretch
        // where the machine drifted and p80 19 %, so p80 it is.
        _ => Plan {
            mix: gen::COMMIT_ONLY_MIX,
            scale: data::VIEW_SCALE,
            smoke_scale: data::SMOKE_SCALE,
            durable: false,
            views: true,
            trace_every: 8,
            slices: 10,
            tail_pct: 80.0,
        },
    }
}

/// Closed-loop clients a workload drives (`fql_query` is not in this
/// module; it has one).
pub fn clients_of(workload: &str) -> usize {
    match workload {
        crate::metrics::FQL_QUERY => 1,
        _ => plan_of(workload).mix.clients as usize,
    }
}

fn commit_policy() -> CommitPolicy {
    CommitPolicy::default().with_max_attempts(MAX_ATTEMPTS)
}

fn stated_durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::new(dir)
        .with_sync(SyncPolicy::EveryN(GROUP_COMMIT))
        .with_checkpoint_every(None)
}

fn durable_config(dcfg: DurabilityConfig) -> StoreConfig {
    StoreConfig {
        durability: Some(dcfg),
        ..Default::default()
    }
}

fn view_plans() -> [(&'static str, Query); 2] {
    [
        (
            "by_state",
            Query::scan("customers")
                .filter("credit > 10", fdm_expr::Params::new())
                .group_agg(
                    &["state"],
                    &[
                        ("count", AggSpec::Count),
                        ("credit", AggSpec::Sum("credit".into())),
                    ],
                ),
        ),
        (
            "rich",
            Query::scan("customers")
                .filter("credit > 50", fdm_expr::Params::new())
                .project(&["name", "credit"]),
        ),
    ]
}

fn add_credit(txn: &mut Transaction, cid: i64, delta: i64) -> fdm_core::Result<()> {
    txn.modify_attr("customers", &Value::Int(cid), "credit", |v| {
        v.add(&Value::Int(delta))
    })
}

/// One closed-loop client and everything it observed.
struct Client<'a> {
    store: &'a Arc<Store>,
    zipf: &'a Zipf,
    plan: &'a Plan,
    seed: u64,
    id: u64,
    policy: CommitPolicy,
    batch: BatchPolicy,
    pending: Vec<(i64, i64)>,
    hists: Vec<Hist>,
    /// Operations started inside the measured window, and the clock at the
    /// start of the first and the return of the last of them.
    measured: u64,
    first_ns: u64,
    last_ns: u64,
    /// Of those, the ones that returned inside each slice of the window.
    done: Vec<u64>,
    /// The longest single call of the measured window.
    longest_ns: u64,
    /// Single commits that landed, the closure executions they took, and
    /// the lost install races they survived.
    commits: u64,
    attempts: u64,
    cas_retries: u64,
    /// Sum of every acknowledged delta: what the audit must find.
    acked: i64,
    attempted: u64,
    failed: u64,
    /// Operations that returned, but not what they should have.
    wrong: u64,
    tracer: Option<Tracer>,
}

impl<'a> Client<'a> {
    fn new(store: &'a Arc<Store>, zipf: &'a Zipf, plan: &'a Plan, seed: u64, id: u64) -> Self {
        Client {
            store,
            zipf,
            plan,
            seed,
            id,
            policy: commit_policy(),
            batch: BatchPolicy::default().with_commit(commit_policy()),
            pending: Vec::with_capacity(FLUSH_AT),
            hists: (0..CLASSES).map(|_| Hist::new()).collect(),
            measured: 0,
            first_ns: 0,
            last_ns: 0,
            done: vec![0; plan.slices],
            longest_ns: 0,
            commits: 0,
            attempts: 0,
            cas_retries: 0,
            acked: 0,
            attempted: 0,
            failed: 0,
            wrong: 0,
            tracer: None,
        }
    }

    /// Opens the root span of a traced op.
    fn open(&mut self, traced: bool, name: &'static str, op_id: u64) -> Option<u32> {
        match self.tracer.as_mut() {
            Some(t) if traced => Some(t.open(name, op_id)),
            _ => None,
        }
    }

    fn close(&mut self, root: Option<u32>) {
        if let (Some(t), Some(root)) = (self.tracer.as_mut(), root) {
            t.close(root);
        }
    }

    fn read(&mut self, cid: i64, op_id: u64, traced: bool) -> u64 {
        let key = Value::Int(cid);
        let store = self.store;
        let t0 = Instant::now();
        let got = if let Some(root) = self.open(traced, "op.read", op_id) {
            // the decomposed path of `Store::read_point`
            let tr = &mut self.tracer;
            let db = span(tr, Some(root), "txn.snapshot", || store.snapshot());
            let rel = span(tr, Some(root), "core.resolve_relation", || {
                db.relation("customers")
            });
            let got = span(tr, Some(root), "core.lookup", || {
                rel.as_ref().ok().and_then(|r| r.lookup(&key))
            });
            let lookup = tr.as_ref().map_or(trace::NO_PARENT, Tracer::last);
            self.close(Some(root));
            if let (Some(t), Ok(rel)) = (self.tracer.as_mut(), rel.as_ref()) {
                t.shadow("storage.pmap_get", lookup, || {
                    black_box(rel.stored_map().and_then(|m| m.get(&key)).is_some())
                });
            }
            got
        } else {
            store.read_point("customers", &key).ok().flatten()
        };
        let ns = t0.elapsed().as_nanos() as u64;
        self.attempted += 1;
        match got {
            Some(t) if name_matches(&t, cid) => {}
            Some(_) => self.wrong += 1,
            None => self.failed += 1,
        }
        ns
    }

    fn scan(&mut self, start: i64, op_id: u64, traced: bool) -> u64 {
        let (lo, hi) = (Value::Int(start), Value::Int(start + SCAN_LEN - 1));
        let store = self.store;
        let t0 = Instant::now();
        let root = self.open(traced, "op.scan", op_id);
        let tr = &mut self.tracer;
        let db = span(tr, root, "txn.snapshot", || store.snapshot());
        let rel = span(tr, root, "core.resolve_relation", || {
            db.relation("customers")
        });
        let rows = span(tr, root, "core.range", || {
            rel.as_ref().map(|r| r.range(Some(&lo), Some(&hi)))
        });
        let range = tr.as_ref().map_or(trace::NO_PARENT, Tracer::last);
        self.close(root);
        let ns = t0.elapsed().as_nanos() as u64;
        if let (Some(_), Some(t), Ok(rel)) = (root, self.tracer.as_mut(), rel.as_ref()) {
            t.shadow("storage.pmap_range", range, || {
                black_box(
                    rel.stored_map()
                        .map_or(0, |m| m.range(Some(&lo), Some(&hi)).count()),
                )
            });
        }
        self.attempted += 1;
        match rows {
            Ok(rows) if scan_matches(&rows, start, SCAN_LEN) => {}
            Ok(_) => self.wrong += 1,
            Err(_) => self.failed += 1,
        }
        ns
    }

    fn commit(&mut self, cid: i64, delta: i64, op_id: u64, traced: bool) -> u64 {
        let store = self.store;
        let t0 = Instant::now();
        // Ok((closure executions, lost install races))
        let mut landed: Result<(usize, usize), ()> = Err(());
        if let Some(root) = self.open(traced, "op.commit", op_id) {
            // the decomposed path of `Store::run_with`, minus its backoff
            // sleep (one op in `trace_every` takes this path)
            let tr = &mut self.tracer;
            // with views registered the commit also diffs the two roots and
            // feeds the views; the diff is repeated below as a shadow
            let before = self.plan.views.then(|| store.snapshot());
            for attempt in 1..=MAX_ATTEMPTS {
                let mut txn = span(tr, Some(root), "txn.begin", || store.begin());
                let staged = span(tr, Some(root), "txn.stage", || {
                    add_credit(&mut txn, cid, delta)
                });
                if staged.is_err() {
                    break;
                }
                let policy = &self.policy;
                match span(tr, Some(root), "txn.commit", || txn.commit_with(policy)) {
                    Ok(o) => {
                        landed = Ok((attempt, o.conflicts.len()));
                        break;
                    }
                    Err(
                        FdmError::TransactionConflict { .. }
                        | FdmError::TransactionRetriesExhausted { .. },
                    ) => std::thread::yield_now(),
                    Err(_) => break,
                }
            }
            let commit = tr.as_ref().map_or(trace::NO_PARENT, Tracer::last);
            self.close(Some(root));
            if let (Some(t), Some(before), Ok(_)) = (self.tracer.as_mut(), before, landed) {
                let after = store.snapshot();
                t.shadow("core.delta_between", commit, || {
                    black_box(fdm_core::delta::DbDelta::between(&before, &after).is_ok())
                });
            }
        } else if let Ok((_, o)) = store.run_with(&self.policy, |txn| add_credit(txn, cid, delta)) {
            landed = Ok((o.attempts, o.conflicts.len()));
        }
        let ns = t0.elapsed().as_nanos() as u64;
        self.attempted += 1;
        match landed {
            Ok((attempts, cas)) => {
                self.commits += 1;
                self.attempts += attempts as u64;
                self.cas_retries += cas as u64;
                self.acked += delta;
            }
            Err(()) => self.failed += 1,
        }
        ns
    }

    fn view_read(&mut self, op_id: u64, traced: bool) -> u64 {
        let store = self.store;
        let t0 = Instant::now();
        let root = self.open(traced, "op.view_read", op_id);
        let got = span(&mut self.tracer, root, "txn.view_read", || {
            store.view("by_state")
        });
        self.close(root);
        let ns = t0.elapsed().as_nanos() as u64;
        self.attempted += 1;
        if got.is_err() {
            self.failed += 1;
        }
        ns
    }

    /// Flushes the buffered writes as one group commit: coalesced per key
    /// (in-batch overlap is a conflict by design), members the group
    /// rejected re-run singly. Returns `None` when nothing was pending.
    fn flush(&mut self, op_id: u64, traced: bool) -> Option<u64> {
        if self.pending.is_empty() {
            return None;
        }
        let store = self.store;
        let t0 = Instant::now();
        // key -> (summed delta, logical writes folded in)
        let mut per_key: BTreeMap<i64, (i64, u64)> = BTreeMap::new();
        for (cid, delta) in self.pending.drain(..) {
            let e = per_key.entry(cid).or_insert((0, 0));
            e.0 += delta;
            e.1 += 1;
        }
        let root = self.open(traced, "op.flush", op_id);
        let tr = &mut self.tracer;
        let mut members: Vec<(i64, i64, u64)> = Vec::with_capacity(per_key.len());
        let mut unstaged = 0u64;
        let txns: Vec<Transaction> = span(tr, root, "txn.stage_batch", || {
            per_key
                .iter()
                .filter_map(|(&cid, &(delta, n))| {
                    let mut txn = store.begin();
                    match add_credit(&mut txn, cid, delta) {
                        Ok(()) => {
                            members.push((cid, delta, n));
                            Some(txn)
                        }
                        Err(_) => {
                            unstaged += n;
                            None
                        }
                    }
                })
                .collect()
        });
        let batch = &self.batch;
        let outcomes = span(tr, root, "txn.commit_batch", || {
            store.commit_batch(txns, batch)
        });
        for (&(cid, delta, n), outcome) in members.iter().zip(outcomes) {
            let ok = outcome.is_ok()
                || span(tr, root, "txn.rerun", || {
                    store
                        .run_with(&batch.commit, |txn| add_credit(txn, cid, delta))
                        .is_ok()
                });
            if ok {
                self.acked += delta;
            } else {
                self.failed += n;
            }
        }
        self.failed += unstaged;
        self.close(root);
        Some(t0.elapsed().as_nanos() as u64)
    }

    /// Executes one op; returns the class and latency of what was timed.
    fn step(&mut self, op: ServeOp, op_id: u64, traced: bool) -> Option<(Class, u64)> {
        match op {
            ServeOp::ReadHot(cid) | ServeOp::ReadCold(cid) => {
                Some((Class::Read, self.read(cid, op_id, traced)))
            }
            ServeOp::Scan(start) => Some((Class::Scan, self.scan(start, op_id, traced))),
            ServeOp::Commit(cid, delta) => {
                Some((Class::Commit, self.commit(cid, delta, op_id, traced)))
            }
            ServeOp::Buffered(cid, delta) => {
                self.pending.push((cid, delta));
                self.attempted += 1;
                if self.pending.len() >= FLUSH_AT {
                    self.flush(op_id, traced).map(|ns| (Class::Flush, ns))
                } else {
                    None
                }
            }
        }
    }

    /// Drives the op stream from `epoch` until the window closes. Ops are
    /// generated a block ahead so generation stays out of every latency.
    fn run(&mut self, epoch: Instant, warm_ns: u64, window_ns: u64) {
        let end_ns = warm_ns + window_ns;
        let slice_ns = (window_ns / self.done.len() as u64).max(1);
        let mut block = [ServeOp::ReadHot(1); BLOCK];
        let mut next = 0u64;
        'window: loop {
            for (k, slot) in block.iter_mut().enumerate() {
                *slot = gen::serve_op(
                    &self.plan.mix,
                    self.zipf,
                    self.seed,
                    self.id,
                    next + k as u64,
                );
            }
            for op in block {
                let op_id = next;
                next += 1;
                let now = epoch.elapsed().as_nanos() as u64;
                if now >= end_ns {
                    break 'window;
                }
                let measuring = now >= warm_ns;
                // even slices are traced, odd ones are not: their rates
                // side by side are the tracing overhead
                let traced_slice =
                    self.tracer.is_some() && measuring && ((now - warm_ns) / slice_ns) % 2 == 0;
                let traced = traced_slice && op_id % self.plan.trace_every == 0;
                let commits_before = self.commits;
                let timed = self.step(op, op_id, traced);
                // view reads are rare: every one on a traced slice is traced
                let view_due = self.plan.views
                    && self.commits != commits_before
                    && self.commits % VIEW_READ_EVERY == 0;
                let view_ns = view_due.then(|| self.view_read(op_id, traced_slice));
                if !measuring {
                    continue;
                }
                // traced ops carry the span clock reads: count them, but
                // keep their latencies out of the histograms
                if let (false, Some((class, ns))) = (traced, timed) {
                    self.hists[class as usize].record(ns);
                }
                if let (false, Some(ns)) = (traced_slice, view_ns) {
                    self.hists[Class::ViewRead as usize].record(ns);
                }
                let call_ns = timed.map_or(0, |(_, ns)| ns).max(view_ns.unwrap_or(0));
                self.longest_ns = self.longest_ns.max(call_ns);
                let finished = epoch.elapsed().as_nanos() as u64;
                if self.measured == 0 {
                    self.first_ns = now;
                }
                self.last_ns = finished;
                self.measured += 1 + u64::from(view_due);
                if let Some(done) = self
                    .done
                    .get_mut(((finished - warm_ns) / slice_ns) as usize)
                {
                    *done += 1 + u64::from(view_due);
                }
            }
        }
        // what is still buffered was acknowledged to nobody yet: land it so
        // the audit covers every generated write
        self.flush(next, false);
    }
}

/// What the window produced, merged over clients.
struct Window {
    hists: Vec<Hist>,
    /// Operations the clients started inside the measured window, and
    /// their rate: each client's count over the time from the start of its
    /// first to the return of its last, summed. Nothing is trimmed, so a
    /// stall costs what it cost.
    measured: u64,
    ops_per_s: f64,
    /// Completions of all clients inside each slice of the measured window.
    done: Vec<u64>,
    longest_ns: u64,
    commits: u64,
    attempts: u64,
    cas_retries: u64,
    acked: i64,
    attempted: u64,
    failed: u64,
    wrong: u64,
    trace: Option<TraceOut>,
}

impl Window {
    fn new(cfg: &Config, plan: &Plan) -> Window {
        Window {
            hists: (0..CLASSES).map(|_| Hist::new()).collect(),
            measured: 0,
            ops_per_s: 0.0,
            done: vec![0; plan.slices],
            longest_ns: 0,
            commits: 0,
            attempts: 0,
            cas_retries: 0,
            acked: 0,
            attempted: 0,
            failed: 0,
            wrong: 0,
            trace: cfg.trace.then(|| TraceOut {
                sample_every: plan.trace_every,
                ..Default::default()
            }),
        }
    }

    /// Completions per second inside the slices whose index passes `keep`:
    /// their completions divided by their share of `seconds`.
    fn slice_rate(&self, seconds: f64, keep: impl Fn(usize) -> bool) -> f64 {
        let kept = || (0..self.done.len()).filter(|&i| keep(i));
        let done: u64 = kept().map(|i| self.done[i]).sum();
        done as f64 * self.done.len() as f64 / (kept().count().max(1) as f64 * seconds)
    }
}

/// Runs the warm-up and the measured window on `store`.
fn run_window(cfg: &Config, plan: &Plan, store: &Arc<Store>, zipf: &Zipf) -> Window {
    let mut w = Window::new(cfg, plan);
    let warm_ns = (cfg.warmup_s() * 1e9) as u64;
    let span_cap = if cfg.smoke { 20_000 } else { SPAN_CAP };
    let epoch = Instant::now();
    let clients: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.mix.clients)
            .map(|id| {
                let mut client = Client::new(store, zipf, plan, cfg.seed, id);
                if cfg.trace {
                    client.tracer = Some(Tracer::new(epoch, span_cap));
                }
                s.spawn(move || {
                    client.run(epoch, warm_ns, cfg.window_ns());
                    client
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    for c in &clients {
        for (into, from) in w.hists.iter_mut().zip(&c.hists) {
            into.merge(from);
        }
        for (into, from) in w.done.iter_mut().zip(&c.done) {
            *into += from;
        }
        w.longest_ns = w.longest_ns.max(c.longest_ns);
        w.measured += c.measured;
        w.ops_per_s += c.measured as f64 * 1e9 / c.last_ns.saturating_sub(c.first_ns).max(1) as f64;
        w.commits += c.commits;
        w.attempts += c.attempts;
        w.cas_retries += c.cas_retries;
        w.acked += c.acked;
        w.attempted += c.attempted;
        w.failed += c.failed;
        w.wrong += c.wrong;
        if let (Some(out), Some(t)) = (w.trace.as_mut(), c.tracer.as_ref()) {
            out.spans_total += t.spans().len() as u64 + t.dropped;
            out.spans_dropped += t.dropped;
            trace::merge_stats(&mut out.by_name, &trace::self_times(t.spans()));
            if c.id == 0 {
                out.sample = t.spans().iter().take(SPAN_SAMPLE).cloned().collect();
            }
        }
    }
    w
}

/// One built store and the seconds its pieces took.
struct Built {
    store: Arc<Store>,
    dir: Option<PathBuf>,
    setup_s: f64,
    create_s: f64,
}

/// Builds the data, creates the store, registers the views: everything a
/// user pays before the first operation.
fn build(cfg: &Config, plan: &Plan, scale: Scale, round: usize) -> Result<Built, String> {
    let dir = plan.durable.then(|| cfg.data_dir(&format!("main{round}")));
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let t0 = Instant::now();
    let db = fdm_workload::retail_db(&data::retail_config(scale));
    let (store, create_s) = match &dir {
        Some(dir) => {
            let (store, s) = timed_s(|| Store::create(db, durable_config(stated_durability(dir))));
            (store.map_err(|e| format!("Store::create: {e}"))?, s)
        }
        None => (Store::new(db), 0.0),
    };
    if plan.views {
        for (name, query) in view_plans() {
            store
                .register_view(name, query)
                .map_err(|e| format!("register_view({name}): {e}"))?;
        }
    }
    Ok(Built {
        store,
        dir,
        setup_s: t0.elapsed().as_secs_f64(),
        create_s,
    })
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let plan = plan_of(cfg.workload);
    let scale = if cfg.smoke {
        plan.smoke_scale
    } else {
        plan.scale
    };
    let zipf = Zipf::new(scale.0, 1.1);
    let mut out = Outcome::default();

    // ── set-up, repeated so `setup_s` is a median; the last store serves ──
    let rounds = cfg.setups.max(1);
    let mut setups = Vec::with_capacity(rounds);
    let mut creates = Vec::with_capacity(rounds);
    let mut built: Option<Built> = None;
    for round in 0..rounds {
        if let Some(Built { dir: Some(dir), .. }) = built.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        let b = build(cfg, &plan, scale, round)?;
        setups.push(b.setup_s);
        creates.push(b.create_s);
        built = Some(b);
    }
    let Built { store, dir, .. } = built.expect("at least one set-up round");
    out.set_n("setup_s", median(&mut setups), setups.len() as u64);
    let fp = data::fingerprint(&store.snapshot())?;
    if !cfg.smoke {
        let want = if plan.views {
            data::VIEW_FINGERPRINT
        } else {
            data::SERVE_FINGERPRINT
        };
        out.check("dataset_fingerprint", fp == want, format!("{fp:?}"));
    }

    // ── the window, then what it must have left behind ──
    let mut w = run_window(cfg, &plan, &store, &zipf);
    let snap = store.snapshot();
    let (ok, detail) = match total_credit(&snap) {
        Ok(sum) => (
            sum == w.acked,
            format!("credit sum {sum}, acknowledged {}", w.acked),
        ),
        Err(e) => (false, e),
    };
    out.check("audit_sum_after_window", ok, detail);
    if plan.views {
        for (name, query) in view_plans() {
            let ok = match (store.view(name), query.eval(&snap)) {
                (Ok((_, view)), Ok(fresh)) => relations_equal(&view, &fresh),
                _ => false,
            };
            out.check(&format!("view_{name}_equals_recompute"), ok, "");
        }
    }
    drop(snap);
    out.attempted = w.attempted;
    out.failed = w.failed;
    out.check(
        "reads_and_scans_return_expected_rows",
        w.wrong == 0,
        format!("{} operations returned the wrong rows", w.wrong),
    );
    out.set_n("ops_per_s", w.ops_per_s, w.measured);
    out.set("harness.max_stall_ms", w.longest_ns as f64 / 1e6);
    let read = &w.hists[Class::Read as usize];
    let commit = &w.hists[Class::Commit as usize];
    let primary = if plan.mix.commit > 0 { commit } else { read };
    out.set_p50("op_p50_us", primary, 1e3);
    out.set_tail("op_tail_us", primary, plan.tail_pct, 1e3);
    if plan.mix.read_hot > 0 {
        out.set_p50("read_p50_us", read, 1e3);
        out.set_tail("read_p99_us", read, 99.0, 1e3);
        out.set_p50("scan_p50_us", &w.hists[Class::Scan as usize], 1e3);
    }
    if plan.mix.commit > 0 {
        out.set_p50("commit_p50_us", commit, 1e3);
        out.set_tail("commit_p99_us", commit, 99.0, 1e3);
    }
    if plan.durable {
        out.set_p50("flush_p50_us", &w.hists[Class::Flush as usize], 1e3);
    }
    for (class, h) in ["read", "scan", "commit", "flush", "view_read"]
        .into_iter()
        .zip(&w.hists)
    {
        if h.count() > 0 {
            out.latency_table(class, h);
        }
    }

    // ── serve_write_durable: checkpoints, the commit tail, the reopen ──
    let mut acked = w.acked;
    let mut store = Some(store);
    if let Some(dir) = &dir {
        let s = store.take().expect("the durable store is still open");
        acked = durable_tail(cfg, &plan, &zipf, s, dir, acked, &mut out)?;
    }

    // ── per-layer probes (traced run only) ──
    if cfg.trace {
        let timer = BlockTimer::calibrate();
        let traced_rate = w.slice_rate(cfg.seconds, |i| i % 2 == 0);
        let untraced_rate = w.slice_rate(cfg.seconds, |i| i % 2 == 1);
        out.set(
            "harness.trace_overhead_pct",
            (1.0 - traced_rate / untraced_rate.max(f64::MIN_POSITIVE)) * 100.0,
        );
        probes::harness(&mut out, &timer, &zipf, cfg.seed, |i| {
            black_box(gen::serve_op(&plan.mix, &zipf, cfg.seed, 9, i as u64));
        });
        match (&dir, store.as_ref()) {
            (Some(dir), _) => {
                out.set_n(
                    "durability.create_s",
                    median(&mut creates),
                    creates.len() as u64,
                );
                durable_probes(cfg, &zipf, dir, &timer, acked, &mut out)?;
            }
            (None, Some(store)) => {
                if plan.mix.read_hot > 0 {
                    probes::read_path(&mut out, &timer, store, &zipf, cfg.seed, true);
                }
                if plan.views {
                    out.set("txn.history_len", store.history().len() as f64);
                    out.set("txn.log_len", store.log_len() as f64);
                    let twin = Store::new(store.snapshot());
                    probes::write_path(&mut out, &timer, &twin, &zipf, cfg.seed, false);
                    view_probes(cfg, store, &zipf, &mut out)?;
                }
            }
            (None, None) => unreachable!("an in-memory store is never taken"),
        }
        if plan.mix.commit > 0 {
            commit_counters(&mut out, &w);
        }
        out.trace = w.trace.take();
    }

    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    out.info.extend([
        ("clients", Json::Num(plan.mix.clients as f64)),
        ("scale", Json::obj(fp.json_fields())),
        (
            "flush_policy",
            Json::str(if plan.durable {
                FLUSH_POLICY
            } else {
                "none: in-memory store, no WAL"
            }),
        ),
        (
            "loop",
            Json::str("closed: each client waits for every call to return"),
        ),
    ]);
    Ok(out)
}

/// `txn.commit_attempts_mean` and `txn.conflict_ratio` of the window's
/// single commits.
fn commit_counters(out: &mut Outcome, w: &Window) {
    let tries = w.attempts + w.cas_retries;
    out.set_n(
        "txn.commit_attempts_mean",
        tries as f64 / w.commits.max(1) as f64,
        w.commits,
    );
    out.set_n(
        "txn.conflict_ratio",
        tries.saturating_sub(w.commits) as f64 / tries.max(1) as f64,
        tries,
    );
}

/// After the durable window: sync, three checkpoints, the fixed commit
/// tail, sync, drop without shutdown, reopen — with the audit sum checked
/// on both sides of the reopen. Returns the acknowledged total.
fn durable_tail(
    cfg: &Config,
    plan: &Plan,
    zipf: &Zipf,
    store: Arc<Store>,
    dir: &Path,
    mut acked: i64,
    out: &mut Outcome,
) -> Result<i64, String> {
    let durability = |e: fdm_txn::DurabilityError| e.to_string();
    store.sync_wal().map_err(durability)?;
    if cfg.trace {
        // the window's state, before the tail reshapes it
        out.set("txn.history_len", store.history().len() as f64);
        out.set("txn.log_len", store.log_len() as f64);
    }
    let mut failed_ckpt = 0;
    let checkpoint_s = median_s(3, || {
        if store.checkpoint().is_err() {
            failed_ckpt += 1;
        }
    });
    out.check("checkpoints_succeed", failed_ckpt == 0, "");
    out.set_n("checkpoint_s", checkpoint_s, 3);

    let tail = tail_commits(cfg);
    let policy = commit_policy();
    for i in 0..tail {
        // a client id no window stream uses
        let ServeOp::Commit(cid, delta) =
            gen::serve_op(&gen::COMMIT_ONLY_MIX, zipf, cfg.seed, plan.mix.clients, i)
        else {
            unreachable!("the commit-only mix yields commits");
        };
        out.attempted += 1;
        match store.run_with(&policy, |txn| add_credit(txn, cid, delta)) {
            Ok(_) => acked += delta,
            Err(_) => out.failed += 1,
        }
    }
    store.sync_wal().map_err(durability)?;
    let version = store.version();
    match Arc::try_unwrap(store) {
        Ok(store) => drop(store), // no shutdown protocol: the open below is a recovery
        Err(_) => return Err("the durable store is still shared at reopen".into()),
    }
    let (reopened, reopen_s) = timed_s(|| Store::open(dir));
    let reopened = reopened.map_err(durability)?;
    out.set("reopen_s", reopen_s);
    let (ok, detail) = match total_credit(&reopened.snapshot()) {
        Ok(sum) => (
            sum == acked && reopened.version() == version,
            format!(
                "credit sum {sum}, acknowledged {acked}; version {} of {version}",
                reopened.version()
            ),
        ),
        Err(e) => (false, e),
    };
    out.check("audit_sum_after_reopen", ok, detail);
    out.info.push(("tail_commits", Json::Num(tail as f64)));
    Ok(acked)
}

/// Commits `n` single writes from one thread; mean microseconds each.
fn commit_burst(store: &Arc<Store>, zipf: &Zipf, seed: u64, lane: u64, n: u64) -> (f64, i64) {
    let policy = commit_policy();
    let mut acked = 0i64;
    let t0 = Instant::now();
    for i in 0..n {
        if let ServeOp::Commit(cid, delta) =
            gen::serve_op(&gen::COMMIT_ONLY_MIX, zipf, seed, lane, i)
        {
            if store
                .run_with(&policy, |txn| add_credit(txn, cid, delta))
                .is_ok()
            {
                acked += delta;
            }
        }
    }
    (t0.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64, acked)
}

/// The `durability.*` metrics, taken through `Store` on the directory the
/// workload left behind: the same commit stream under `EveryN(64)`,
/// `Never` and no WAL at all splits a commit into fsync, append and the
/// rest; a reopen over an empty tail is the checkpoint load alone.
fn durable_probes(
    cfg: &Config,
    zipf: &Zipf,
    dir: &Path,
    timer: &BlockTimer,
    mut acked: i64,
    out: &mut Outcome,
) -> Result<(), String> {
    let durability = |e: fdm_txn::DurabilityError| e.to_string();
    let open = |dcfg: DurabilityConfig| Store::open_with(durable_config(dcfg)).map_err(durability);
    let burst = if cfg.smoke { 200 } else { 20_000 };

    // checkpoint, then reopen over an empty tail
    let store = open(stated_durability(dir))?;
    store.checkpoint().map_err(durability)?;
    drop(store);
    let (store, load_s) = timed_s(|| open(stated_durability(dir)));
    let store = store?;
    out.set("durability.checkpoint_load_s", load_s);
    out.set(
        "durability.replay_commits_per_s",
        tail_commits(cfg) as f64 / (out.get("reopen_s") - load_s).max(1e-9),
    );
    let ckpt_mb = host::newest_checkpoint_bytes(dir) as f64 / (1024.0 * 1024.0);
    out.set("durability.checkpoint_mb", ckpt_mb);
    out.set(
        "durability.checkpoint_mb_per_s",
        ckpt_mb / out.get("checkpoint_s").max(1e-9),
    );

    // the stated policy: EveryN(64)
    let before = host::dir_bytes(dir);
    let (group_us, a) = commit_burst(&store, zipf, cfg.seed, 10, burst);
    acked += a;
    store.sync_wal().map_err(durability)?;
    out.set_n(
        "durability.wal_bytes_per_commit",
        host::dir_bytes(dir).saturating_sub(before) as f64 / burst as f64,
        burst,
    );
    let mut syncs: Vec<f64> = Vec::with_capacity(16);
    for round in 0..16 {
        let (_, a) = commit_burst(&store, zipf, cfg.seed, 11 + round, GROUP_COMMIT / 2);
        acked += a;
        syncs.push(timed_s(|| store.sync_wal()).1 * 1e6);
    }
    out.set_n("durability.sync_wal_us", median(&mut syncs), 16);
    let twin = Store::new(store.snapshot());
    probes::write_path(out, timer, &twin, zipf, cfg.seed, true);
    probes::read_path(out, timer, &store, zipf, cfg.seed, false);
    drop(store);

    // the same stream with fsync off, and with no WAL at all
    let store = open(
        DurabilityConfig::new(dir)
            .with_sync(SyncPolicy::Never)
            .with_checkpoint_every(None),
    )?;
    let (never_us, a) = commit_burst(&store, zipf, cfg.seed, 10, burst);
    acked += a;
    let (memory_us, _) = commit_burst(&twin, zipf, cfg.seed, 10, burst);
    out.set_n(
        "durability.append_us_per_commit",
        never_us - memory_us,
        burst,
    );
    out.set_n("durability.fsync_us_per_commit", group_us - never_us, burst);
    store.sync_wal().map_err(durability)?;
    let (report, verify_s) = timed_s(|| store.verify_integrity());
    out.check("verify_integrity_passes", report.is_ok(), "");
    out.set("durability.verify_integrity_s", verify_s);
    drop(store);

    // the default policy, recorded as a finding: fsync on every commit and
    // a full checkpoint every 256
    let store = open(DurabilityConfig::new(dir))?;
    let policy = commit_policy();
    let (mut done, mut stall_ns) = (0u64, 0u64);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < cfg.seconds / 2.0 {
        if let ServeOp::Commit(cid, delta) =
            gen::serve_op(&gen::COMMIT_ONLY_MIX, zipf, cfg.seed, 40, done)
        {
            let c0 = Instant::now();
            if store
                .run_with(&policy, |txn| add_credit(txn, cid, delta))
                .is_ok()
            {
                acked += delta;
            }
            stall_ns = stall_ns.max(c0.elapsed().as_nanos() as u64);
        }
        done += 1;
    }
    out.set_n(
        "durability.default_policy_ops_per_s",
        done as f64 / t0.elapsed().as_secs_f64(),
        done,
    );
    out.set("durability.default_policy_stall_ms", stall_ns as f64 / 1e6);
    let (ok, detail) = match total_credit(&store.snapshot()) {
        Ok(sum) => (
            sum == acked,
            format!("credit sum {sum}, acknowledged {acked}"),
        ),
        Err(e) => (false, e),
    };
    out.check("audit_sum_after_probes", ok, detail);
    Ok(())
}

/// The view-side per-layer metrics, on twins of the measured store.
fn view_probes(
    cfg: &Config,
    store: &Arc<Store>,
    zipf: &Zipf,
    out: &mut Outcome,
) -> Result<(), String> {
    let fdm = |e: FdmError| e.to_string();
    let rounds = if cfg.smoke { 5 } else { 20 };
    let policy = commit_policy();
    let next_commit = |store: &Arc<Store>, lane: u64, i: u64| -> Result<(), String> {
        if let ServeOp::Commit(cid, delta) =
            gen::serve_op(&gen::COMMIT_ONLY_MIX, zipf, cfg.seed, lane, i)
        {
            store
                .run_with(&policy, |txn| add_credit(txn, cid, delta))
                .map_err(fdm)?;
        }
        Ok(())
    };

    // a view-less twin: what a commit costs without the catalog
    let bare = Store::new(store.snapshot());
    let mut bare_us: Vec<f64> = Vec::with_capacity(200);
    for i in 0..200 {
        let t0 = Instant::now();
        next_commit(&bare, 20, i)?;
        bare_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    out.set_n(
        "txn.view_commit_overhead_us",
        out.get("commit_p50_us") - median(&mut bare_us),
        200,
    );
    out.set_n("txn.view_read_ns", view_read_ns(store), 64);

    // one single-row delta at a time: diff, stand-alone apply
    let (name, query) = view_plans().into_iter().next().expect("by_state");
    let mut before = bare.snapshot();
    let mut view = fdm_fql::MaintainedView::new(name, query.clone(), &before).map_err(fdm)?;
    let (mut between_us, mut apply_us) = (Vec::new(), Vec::new());
    for i in 0..rounds {
        next_commit(&bare, 21, i)?;
        let after = bare.snapshot();
        let (delta, s) = timed_s(|| fdm_core::delta::DbDelta::between(&before, &after));
        let delta = delta.map_err(fdm)?;
        between_us.push(s * 1e6);
        let (applied, s) = timed_s(|| view.apply(&after, &delta));
        applied.map_err(fdm)?;
        apply_us.push(s * 1e6);
        before = after;
    }
    out.set_n("core.delta_between_us", median(&mut between_us), rounds);
    out.set_n("fql.ivm_apply_us", median(&mut apply_us), rounds);
    let plan = query.optimize_for(&before);
    let mut recompute_ms: Vec<f64> = (0..5)
        .map(|_| timed_s(|| black_box(plan.eval(&before).is_ok())).1 * 1e3)
        .collect();
    out.set_n("fql.view_recompute_ms", median(&mut recompute_ms), 5);

    // manual refresh: the same maintenance, off the commit path
    let manual = Store::new(store.snapshot());
    for (name, query) in view_plans() {
        manual
            .register_view_with(name, query, fdm_txn::RefreshMode::Manual)
            .map_err(fdm)?;
    }
    let mut refresh_us: Vec<f64> = Vec::with_capacity(5);
    for round in 0..5 {
        for i in 0..VIEW_READ_EVERY {
            next_commit(&manual, 22, round * VIEW_READ_EVERY + i)?;
        }
        let (r, s) = timed_s(|| manual.refresh_views_to(manual.version()));
        r.map_err(fdm)?;
        refresh_us.push(s * 1e6 / VIEW_READ_EVERY as f64);
    }
    out.set_n("txn.refresh_us_per_commit", median(&mut refresh_us), 5);

    let stats = store.view_stats("by_state");
    out.set(
        "fql.ivm_fallback_ratio",
        stats.map_or(0.0, |s| {
            s.fallback_recomputes as f64 / s.deltas_applied.max(1) as f64
        }),
    );
    Ok(())
}

/// Median nanoseconds of `Store::view("by_state")` over 64 reads.
fn view_read_ns(store: &Arc<Store>) -> f64 {
    let mut ns: Vec<f64> = (0..64)
        .map(|_| {
            let t0 = Instant::now();
            black_box(store.view("by_state").is_ok());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut ns)
}
