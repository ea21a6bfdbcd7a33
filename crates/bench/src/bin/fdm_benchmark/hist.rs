//! Fixed-size log-bucket latency histogram.
//!
//! Values are nanoseconds. Each octave `[2^e, 2^(e+1))` is cut into 128
//! equal sub-buckets, so one bucket spans at most 1/128 = 0.78 % of its
//! lower bound; values below 128 ns get a bucket each. The table is
//! allocated once (58 KiB) and never grows — a `Vec` of raw samples drifts
//! the very throughput it is measuring once it reaches millions of entries.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Percentiles a tail may be reported at, ascending.
pub const TAIL_LADDER: [f64; 9] = [50.0, 75.0, 80.0, 90.0, 95.0, 98.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (shift as usize + 1) * SUB + ((v >> shift) as usize - SUB)
}

/// `(lower bound, width)` of a bucket.
fn bounds_of(idx: usize) -> (u64, u64) {
    let (block, off) = (idx / SUB, idx % SUB);
    if block == 0 {
        return (off as u64, 1);
    }
    let shift = block as u32 - 1;
    (((SUB + off) as u64) << shift, 1u64 << shift)
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `pct`-th percentile in nanoseconds (nearest rank, interpolated
    /// inside the bucket by rank so the value keeps its digits instead of
    /// snapping to a bucket edge). 0 for an empty histogram.
    pub fn percentile_ns(&self, pct: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((pct / 100.0 * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if before + c >= rank {
                let (lo, width) = bounds_of(idx);
                let within = (rank - before) as f64 - 0.5;
                return lo as f64 + width as f64 * within / c as f64;
            }
            before += c;
        }
        unreachable!("rank <= n, so some bucket reaches it")
    }

    /// The highest ladder percentile `<= cap_pct` that still has at least
    /// [`MIN_BEYOND`] samples beyond it, with its value in nanoseconds.
    /// Falls back to the median when even p75 is not supported.
    pub fn tail_ns(&self, cap_pct: f64) -> (f64, f64) {
        let pct = TAIL_LADDER
            .iter()
            .copied()
            .filter(|&p| p <= cap_pct && samples_beyond(self.n, p) >= MIN_BEYOND)
            .fold(50.0, f64::max);
        (pct, self.percentile_ns(pct))
    }
}

/// How many of `n` samples lie strictly beyond the `pct`-th percentile.
pub fn samples_beyond(n: u64, pct: f64) -> u64 {
    n - ((pct / 100.0 * n as f64).ceil() as u64).min(n)
}

/// Median of a small sample set (0 when empty); the slice is sorted in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::mix;

    #[test]
    fn buckets_are_contiguous_and_within_step() {
        let mut prev_end = 0u64;
        for idx in 0..BUCKETS {
            let (lo, width) = bounds_of(idx);
            assert_eq!(lo, prev_end, "bucket {idx} starts where the last ended");
            assert_eq!(bucket_of(lo), idx);
            assert_eq!(bucket_of(lo + (width - 1)), idx);
            if lo >= SUB as u64 {
                assert!(
                    width as f64 / lo as f64 <= 0.011,
                    "step above 1.1 % at {lo}"
                );
            }
            prev_end = lo.wrapping_add(width);
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_match_a_sorted_vec_oracle() {
        // log-uniform latencies from 100 ns to ~100 ms
        let mut h = Hist::new();
        let mut all: Vec<u64> = (0..200_000u64)
            .map(|i| {
                let r = mix(42, 0, i, 0);
                let base = 100u64 << (r % 20);
                base + (r >> 40) % base
            })
            .collect();
        for &v in &all {
            h.record(v);
        }
        all.sort_unstable();
        for pct in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9] {
            let rank = (pct / 100.0 * all.len() as f64).ceil() as usize;
            let exact = all[rank - 1] as f64;
            let got = h.percentile_ns(pct);
            assert!(
                (got - exact).abs() / exact <= 0.008,
                "p{pct}: histogram {got} vs oracle {exact}"
            );
        }
        assert_eq!(h.count(), 200_000);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let fill = |n: u64| {
            let mut h = Hist::new();
            for i in 0..n {
                h.record(1_000 + i);
            }
            h
        };
        // 72 samples: p80 leaves 14 beyond, p90 only 7
        assert_eq!(fill(72).tail_ns(99.0).0, 80.0);
        // 500 samples: p98 leaves exactly 10 beyond, p99 only 5
        assert_eq!(fill(500).tail_ns(99.0).0, 98.0);
        // plenty of samples: the cap wins
        assert_eq!(fill(1_000_000).tail_ns(99.0).0, 99.0);
        assert_eq!(fill(1_000_000).tail_ns(99.99).0, 99.99);
        // too few for any tail: the median is all that can be said
        assert_eq!(fill(12).tail_ns(99.0).0, 50.0);
        assert_eq!(samples_beyond(1_000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
