//! What every workload shares: the run configuration, the outcome it fills
//! in, and the block timer behind the nanosecond-scale per-layer metrics.

use crate::hist::{median, samples_beyond, Hist, MIN_BEYOND};
use crate::json::Json;
use crate::trace::{NameStats, Span};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Share of the measured window spent warming up before it.
const WARMUP_SHARE: f64 = 0.15;

/// Calls per timed block for calls cheaper than about a microsecond.
pub const BLOCK: usize = 256;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: &'static str,
    /// Seeds the op stream only; datasets are fixed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny datasets and fixed-count phases, for the test suite.
    pub smoke: bool,
    /// How many times set-up is repeated; `setup_s` is their median.
    pub setups: usize,
    pub out_dir: PathBuf,
}

impl Config {
    pub fn warmup_s(&self) -> f64 {
        self.seconds * WARMUP_SHARE
    }

    pub fn window_ns(&self) -> u64 {
        (self.seconds * 1e9) as u64
    }

    /// A scratch directory for one durable store, unique to this process;
    /// the caller clears it before use and removes it afterwards.
    pub fn data_dir(&self, tag: &str) -> PathBuf {
        self.out_dir
            .join("data")
            .join(format!("{}-{}-{tag}", self.workload, std::process::id()))
    }
}

/// One measured value, with the sample count (and percentile) behind it
/// where it is a latency statistic.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub samples: Option<u64>,
    pub pct: Option<f64>,
}

pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What a traced run keeps of its spans.
#[derive(Default)]
pub struct TraceOut {
    pub sample_every: u64,
    pub spans_total: u64,
    pub spans_dropped: u64,
    pub by_name: BTreeMap<&'static str, NameStats>,
    /// The first spans of client 0, written out verbatim.
    pub sample: Vec<Span>,
}

#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, Reading>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// Facts about the run recorded in the output file (scale, clients,
    /// windows, flush policy, …).
    pub info: Vec<(&'static str, Json)>,
    /// Per operation class: every ladder percentile the sample supports.
    pub latencies: Vec<(&'static str, Json)>,
    pub trace: Option<TraceOut>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(
            name,
            Reading {
                value,
                samples: None,
                pct: None,
            },
        );
    }

    pub fn set_n(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.insert(
            name,
            Reading {
                value,
                samples: Some(samples),
                pct: None,
            },
        );
    }

    /// The median of `h`, in units of `per` nanoseconds.
    pub fn set_p50(&mut self, name: &'static str, h: &Hist, per: f64) {
        self.metrics.insert(
            name,
            Reading {
                value: h.percentile_ns(50.0) / per,
                samples: Some(h.count()),
                pct: Some(50.0),
            },
        );
    }

    /// The highest percentile of `h` up to `cap_pct` that has ten samples
    /// beyond it, in units of `per` nanoseconds.
    pub fn set_tail(&mut self, name: &'static str, h: &Hist, cap_pct: f64, per: f64) {
        let (pct, ns) = h.tail_ns(cap_pct);
        self.metrics.insert(
            name,
            Reading {
                value: ns / per,
                samples: Some(h.count()),
                pct: Some(pct),
            },
        );
    }

    /// Records, for the output file, every percentile of `h` that has ten
    /// samples beyond it, in microseconds, with the sample count.
    pub fn latency_table(&mut self, class: &'static str, h: &Hist) {
        let mut fields: Vec<(String, Json)> = crate::hist::TAIL_LADDER
            .iter()
            .filter(|&&p| p == 50.0 || samples_beyond(h.count(), p) >= MIN_BEYOND)
            .map(|&p| (format!("p{p}"), Json::Num(h.percentile_ns(p) / 1e3)))
            .collect();
        fields.push(("samples".into(), Json::Num(h.count() as f64)));
        self.latencies.push((class, Json::Obj(fields)));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |r| r.value)
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed_s<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median seconds of `rounds` runs of `f`.
pub fn median_s(rounds: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..rounds).map(|_| timed_s(&mut f).1).collect();
    median(&mut times)
}

/// Times calls too cheap to time one by one: blocks of [`BLOCK`] calls,
/// the clock read once per block and its own cost subtracted.
pub struct BlockTimer {
    /// Cost of one `Instant::now()` + `elapsed()` pair.
    pub overhead_ns: f64,
}

impl BlockTimer {
    pub fn calibrate() -> BlockTimer {
        let mut per_pair: Vec<f64> = (0..64)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..BLOCK {
                    black_box(Instant::now().elapsed());
                }
                t0.elapsed().as_nanos() as f64 / BLOCK as f64
            })
            .collect();
        BlockTimer {
            overhead_ns: median(&mut per_pair),
        }
    }

    /// Median nanoseconds per call of `f` over `blocks` blocks; `f` gets
    /// the running call index to pick its input.
    pub fn per_call_ns(&self, blocks: usize, mut f: impl FnMut(usize)) -> f64 {
        let mut per_call: Vec<f64> = (0..blocks)
            .map(|b| {
                let t0 = Instant::now();
                for k in 0..BLOCK {
                    f(b * BLOCK + k);
                }
                let ns = t0.elapsed().as_nanos() as f64;
                (ns - self.overhead_ns).max(0.0) / BLOCK as f64
            })
            .collect();
        median(&mut per_call)
    }
}
