//! The op streams: every operation is a pure function of
//! `(seed, client, i)`, so a stream can be regenerated at any index, two
//! runs with one seed drive identical inputs, and the engine only ever
//! sees the generated operations, never the seed.

/// splitmix64 finalizer — the harness's own copy, so the stream does not
/// change if the engine's backoff jitter ever does.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The `lane`-th random word of op `i` of `client` under `seed`.
pub fn mix(seed: u64, client: u64, i: u64, lane: u64) -> u64 {
    splitmix64(
        splitmix64(seed ^ client.wrapping_mul(0xA24B_AED4_963E_E407))
            ^ i.wrapping_mul(0x9FB2_1C65_1E98_DF25)
            ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93),
    )
}

/// A uniform `f64` in `[0, 1)` from a random word.
fn unit(r: u64) -> f64 {
    (r >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipf over ranks `0..n` by inverse-CDF lookup, plus a fixed scatter of
/// ranks over ids so the hot set is not one contiguous corner of the tree.
///
/// Not `fdm_workload::Zipf`: its only draw is `sample<R: rand::Rng>`, and
/// `rand` is not a dependency of `fdm-bench` (whose manifest this benchmark
/// may not touch) nor re-exported by `fdm-workload`, so this bin can neither
/// name that trait nor implement it for a one-word generator.
pub struct Zipf {
    cdf: Vec<f64>,
    stride: u64,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over zero items");
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        // a multiplier coprime to n permutes 0..n
        let mut stride = 2_654_435_761u64 % n as u64;
        while gcd(stride.max(1), n as u64) != 1 {
            stride += 1;
        }
        Zipf {
            cdf,
            stride: stride.max(1),
        }
    }

    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// The 1-based id drawn by random word `r`: rank by Zipf, id by scatter.
    pub fn id(&self, r: u64) -> i64 {
        let u = unit(r);
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        (rank as u64 * self.stride % self.cdf.len() as u64) as i64 + 1
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One serving operation on `customers`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// Point read of a Zipf-ranked (hot) customer.
    ReadHot(i64),
    /// Point read of a uniformly drawn customer.
    ReadCold(i64),
    /// Inclusive scan of [`SCAN_LEN`] ids from this one.
    Scan(i64),
    /// Single read-modify-write commit: `credit += delta`.
    Commit(i64, i64),
    /// The same write, buffered client-side and flushed in a batch.
    Buffered(i64, i64),
}

pub const SCAN_LEN: i64 = 64;

/// Percent shares of a serving mix; the remainder is `Buffered`.
#[derive(Debug, Clone, Copy)]
pub struct ServeMix {
    pub read_hot: u64,
    pub read_cold: u64,
    pub scan: u64,
    pub commit: u64,
    /// Closed-loop clients driving the mix. Reads range over every id;
    /// client `c` writes only ids `≡ c (mod clients)`, because two clients
    /// read-modify-writing one key can lose an update (README, finding 4)
    /// and the audit sum must hold on every run.
    pub clients: u64,
}

pub const SERVE_READ_MIX: ServeMix = ServeMix {
    read_hot: 75,
    read_cold: 20,
    scan: 5,
    commit: 0,
    clients: 2,
};

pub const SERVE_WRITE_MIX: ServeMix = ServeMix {
    read_hot: 50,
    read_cold: 0,
    scan: 5,
    commit: 30,
    clients: 2,
};

/// Commits only (`view_commit`, and the fixed-count commit tails).
pub const COMMIT_ONLY_MIX: ServeMix = ServeMix {
    read_hot: 0,
    read_cold: 0,
    scan: 0,
    commit: 100,
    clients: 1,
};

pub fn serve_op(mix_: &ServeMix, zipf: &Zipf, seed: u64, client: u64, i: u64) -> ServeOp {
    let roll = mix(seed, client, i, 0) % 100;
    let hot = zipf.id(mix(seed, client, i, 1));
    let delta = (mix(seed, client, i, 2) % 9) as i64 + 1;
    let n = zipf.n() as u64;
    let mut edge = mix_.read_hot;
    if roll < edge {
        return ServeOp::ReadHot(hot);
    }
    edge += mix_.read_cold;
    if roll < edge {
        return ServeOp::ReadCold((mix(seed, client, i, 3) % n) as i64 + 1);
    }
    edge += mix_.scan;
    if roll < edge {
        // keep the whole window inside the relation so every scan returns
        // exactly SCAN_LEN rows
        let last_start = (n as i64 - SCAN_LEN + 1).max(1);
        return ServeOp::Scan(hot.min(last_start));
    }
    // the id of `hot`'s group of `clients` neighbours that is this client's
    let groups = (n / mix_.clients).max(1);
    let group = ((hot as u64 - 1) / mix_.clients).min(groups - 1);
    let own = ((group * mix_.clients + client % mix_.clients).min(n - 1)) as i64 + 1;
    edge += mix_.commit;
    if roll < edge {
        ServeOp::Commit(own, delta)
    } else {
        ServeOp::Buffered(own, delta)
    }
}

/// The `$param` values of the `k`-th query of `pass` in `fql_query`.
pub struct QueryParams {
    /// `age > $a`, drawn from the generator's age range.
    pub age: i64,
    /// `state == $s`, an index into the generator's six states.
    pub state: usize,
    /// `ck <= $c` for the chain query, jittered around half the base rows.
    pub chain_cut: i64,
}

pub fn query_params(seed: u64, pass: u64, k: u64, chain_rows: i64) -> QueryParams {
    let jitter = (chain_rows / 100).max(1) as u64;
    QueryParams {
        age: 18 + (mix(seed, pass, k, 0) % 60) as i64,
        state: (mix(seed, pass, k, 1) % 6) as usize,
        chain_cut: chain_rows / 2 + (mix(seed, pass, k, 2) % (2 * jitter + 1)) as i64
            - jitter as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_functions_of_seed_client_index() {
        let zipf = Zipf::new(5_000, 1.1);
        let stream = |seed, client| -> Vec<ServeOp> {
            (0..2_000)
                .map(|i| serve_op(&SERVE_WRITE_MIX, &zipf, seed, client, i))
                .collect()
        };
        assert_eq!(stream(9, 0), stream(9, 0));
        assert_ne!(stream(9, 0), stream(9, 1));
        assert_ne!(stream(9, 0), stream(10, 0));
        // random access: op i does not depend on having generated 0..i
        assert_eq!(
            serve_op(&SERVE_WRITE_MIX, &zipf, 9, 1, 1_234),
            stream(9, 1)[1_234]
        );
    }

    #[test]
    fn mix_shares_and_key_ranges_hold() {
        let zipf = Zipf::new(5_000, 1.1);
        let ops: Vec<ServeOp> = (0..100_000)
            .map(|i| serve_op(&SERVE_READ_MIX, &zipf, 1, 0, i))
            .collect();
        let share = |f: fn(&ServeOp) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / 1e5;
        assert!((share(|o| matches!(o, ServeOp::ReadHot(_))) - 0.75).abs() < 0.01);
        assert!((share(|o| matches!(o, ServeOp::ReadCold(_))) - 0.20).abs() < 0.01);
        assert!((share(|o| matches!(o, ServeOp::Scan(_))) - 0.05).abs() < 0.01);
        for op in &ops {
            match *op {
                ServeOp::ReadHot(c) | ServeOp::ReadCold(c) => assert!((1..=5_000).contains(&c)),
                ServeOp::Scan(c) => assert!((1..=5_000 - SCAN_LEN + 1).contains(&c)),
                _ => panic!("the read mix has no writes"),
            }
        }
    }

    #[test]
    fn clients_write_disjoint_keys_and_read_all_of_them() {
        let zipf = Zipf::new(5_001, 1.1); // not a multiple of the client count
        let mut read_parity = [false; 2];
        for client in 0..2u64 {
            for i in 0..50_000 {
                match serve_op(&SERVE_WRITE_MIX, &zipf, 4, client, i) {
                    ServeOp::Commit(c, _) | ServeOp::Buffered(c, _) => {
                        assert!((1..=5_001).contains(&c));
                        assert_eq!((c as u64 - 1) % 2, client, "client {client} wrote {c}");
                    }
                    ServeOp::ReadHot(c) => read_parity[(c % 2) as usize] = true,
                    _ => {}
                }
            }
        }
        assert_eq!(read_parity, [true; 2]);
    }

    #[test]
    fn zipf_is_skewed_and_scatter_is_a_permutation() {
        let zipf = Zipf::new(1_000, 1.1);
        let mut seen = vec![false; 1_000];
        for rank in 0..1_000u64 {
            seen[(rank * zipf.stride % 1_000) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "scatter hits every id once");
        let head = zipf.id(0); // u = 0 → rank 0
        let hits = (0..20_000)
            .filter(|&i| zipf.id(mix(3, 0, i, 1)) == head)
            .count();
        assert!(hits > 2_000, "rank 0 draws >10 % at s=1.1, n=1000: {hits}");
    }

    #[test]
    fn query_params_stay_in_range() {
        for k in 0..500 {
            let p = query_params(7, k / 14, k % 14, 3_000);
            assert!((18..78).contains(&p.age));
            assert!(p.state < 6);
            assert!((1_470..=1_530).contains(&p.chain_cut));
        }
    }
}
