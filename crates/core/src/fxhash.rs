//! A fast, non-cryptographic hasher for internal hot-path hash maps.
//!
//! The join fast path probes `Value`-keyed maps tens of thousands of times
//! per operator call; `std`'s default SipHash is DoS-resistant but costs
//! several times more per probe than needed for transient, process-local
//! indexes built from already-validated data. This is the classic
//! multiply-rotate "Fx" scheme (as used by rustc); use it via
//! [`FxHashMap`] only for short-lived internal structures, never for maps
//! holding untrusted external keys long-term.
//!
//! # The finalizer
//!
//! The per-word step is `state = (rotl(state, 5) ^ word) * SEED`. A
//! multiply only carries differences *upward*: bit `k` of the product
//! depends on bits `≤ k` of the input. `Value::Int` and `Value::Float`
//! hash the bits of their `f64` form (that is what keeps `1 == 1.0 ⟹`
//! equal hash), and the `f64` of a small integer has an all-zero low
//! mantissa — `Int(0..65_536)` differ only in bits 36..63. The raw state
//! of every such key therefore shares its low 36 bits, and `hashbrown`
//! picks the bucket from the **low** bits of the hash (and the 7-bit
//! control tag from the **top**): a map keyed by customer, product or row
//! ids degenerated into one probe chain, O(n) per lookup.
//!
//! [`FxHasher::finish`] closes that with one folded multiply: the state
//! times an odd constant as a 128-bit product, high half xor low half.
//! The high half is where the product carries *downward*, so after the
//! fold every output bit — index bits and tag bits alike — depends on
//! every state bit. The fold is a pure function of the state, so
//! `Eq ⟹ equal hash` is untouched. A plain rotate (rustc-hash 2.x) fixes
//! the index bits but leaves 4 tag values for these keys, and
//! `(h ^ h >> 32) * K` leaves 8 index values for `Int(0..256)`; the test
//! `finished_hash_spreads_low_and_top_bits` pins the property by count.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The odd multiplier of the [`FxHasher::finish`] fold (2^64 / φ).
const FOLD: u64 = 0x9e_37_79_b9_7f_4a_7c_15;

/// The rustc "Fx" hasher: one multiply and one rotate per word, and one
/// folded multiply to finish (see the module docs).
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // folded multiply: every output bit, low index bits and top tag
        // bits alike, depends on every state bit (see the module docs)
        let wide = u128::from(self.hash) * u128::from(FOLD);
        (wide as u64) ^ ((wide >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use std::hash::Hash;

    #[test]
    fn distributes_and_is_deterministic() {
        let mut m: FxHashMap<Value, i64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(Value::Int(i), i);
        }
        for i in 0..1000 {
            assert_eq!(m.get(&Value::Int(i)), Some(&i));
        }
        assert_eq!(m.len(), 1000);
        let mut s: FxHashSet<Value> = FxHashSet::default();
        s.insert(Value::str("a"));
        assert!(s.contains(&Value::str("a")));
    }

    #[test]
    fn int_float_key_equivalence_survives() {
        // Value hashes 1 and 1.0 identically; the hasher must preserve that
        let mut m: FxHashMap<Value, &str> = FxHashMap::default();
        m.insert(Value::Int(1), "one");
        assert_eq!(m.get(&Value::Float(1.0)), Some(&"one"));
        assert_eq!(Value::Int(1).fx_hash(), Value::Float(1.0).fx_hash());
    }

    fn hash_of<K: Hash>(key: &K) -> u64 {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    /// Distinct values a uniform hash is expected to hit when `n` keys
    /// fall into `slots` slots.
    fn uniform_distinct(n: usize, slots: usize) -> f64 {
        slots as f64 * (1.0 - (1.0 - 1.0 / slots as f64).powi(n as i32))
    }

    /// The two bit ranges hashbrown reads — the low bits (bucket index;
    /// 16 of them here) and the top 7 (control-byte tag) — must each take
    /// at least 60 % of the distinct values a uniform hash would, on the
    /// whole family and on its first 256 and 4,096 keys (small tables
    /// index by the same low bits). Counted, not timed.
    fn assert_spread<K: Hash>(family: &str, keys: &[K]) {
        for n in [256, 4_096, keys.len()] {
            let hashes: Vec<u64> = keys[..n].iter().map(hash_of).collect();
            for (bits, slots, pick) in [
                ("low 16", 1usize << 16, (|h| h & 0xffff) as fn(u64) -> u64),
                ("top 7", 1 << 7, |h| h >> 57),
            ] {
                let distinct = hashes
                    .iter()
                    .map(|&h| pick(h))
                    .collect::<std::collections::BTreeSet<u64>>()
                    .len();
                let want = 0.6 * uniform_distinct(n, slots);
                assert!(
                    distinct as f64 >= want,
                    "{family}: the {bits} bits of the first {n} keys take {distinct} \
                     distinct values, a uniform hash takes {:.0}",
                    want / 0.6
                );
            }
        }
    }

    #[test]
    fn finished_hash_spreads_low_and_top_bits() {
        const N: i64 = 65_536;
        let ints: Vec<Value> = (0..N).map(Value::Int).collect();
        assert_spread("Value::Int", &ints);
        let integral: Vec<Value> = (0..N).map(|i| Value::Float(i as f64)).collect();
        assert_spread("integral Value::Float", &integral);
        let half_steps: Vec<Value> = (0..N).map(|i| Value::Float(i as f64 + 0.5)).collect();
        assert_spread("half-step Value::Float", &half_steps);
        let ids: Vec<Value> = (0..N).map(|i| Value::str(format!("c{i}"))).collect();
        assert_spread("short Value::Str ids", &ids);
        // group.rs buckets rows by a u64 that is itself a finished hash
        let rehashed: Vec<u64> = ints.iter().map(Value::fx_hash).collect();
        assert_spread("u64 keys that are fx_hash outputs", &rehashed);
        let composite: Vec<Value> = (0..N)
            .map(|i| Value::list([Value::Int(i / 5), Value::Int(i % 2_400)]))
            .collect();
        assert_spread("composite (cid, pid) keys", &composite);
    }
}
