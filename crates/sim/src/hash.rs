//! Deterministic fast hashing for the engine's small integer keys.
//!
//! The standard library's `HashMap` defaults to SipHash-1-3 keyed by a
//! per-process random seed: a good defence against hash flooding, but
//! several rounds of mixing per probe on the engine's hottest maps
//! (per-worker container pools, container waits and running batches,
//! the gateway's batch accumulators), and an iteration order that
//! differs from run to run.
//! Those keys are model ids, batch ids and flags the simulator mints
//! itself, so neither flooding nor key quality is a concern.
//! [`FastHasher`] folds each written word into its state with one
//! rotate, xor and multiply, and has no seed: a map's iteration order
//! is a function of its insertion history alone.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier with well-spread bits (about half set, no
/// long runs), so one multiply carries every input bit upward.
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// A multiplicative, unseeded [`Hasher`] for short integer keys.
///
/// # Example
///
/// ```
/// use protean_sim::hash::FastHashMap;
/// let mut m: FastHashMap<u64, &str> = FastHashMap::default();
/// m.insert(7, "seven");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        // The product's high bits depend on every input bit, its low
        // bits only on the input's low bits; rotate the well-mixed half
        // down to where the table takes its bucket index.
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FastHasher`].
pub type BuildFastHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed through [`FastHasher`]; build with
/// `FastHashMap::default()`.
pub type FastHashMap<K, V> = HashMap<K, V, BuildFastHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        BuildFastHasher::default().hash_one(value)
    }

    #[test]
    fn hashing_is_unseeded() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_eq!(hash_of((3u8, true)), hash_of((3u8, true)));
        assert_ne!(hash_of(42u64), hash_of(43u64));
        assert_ne!(hash_of((3u8, true)), hash_of((3u8, false)));
    }

    #[test]
    fn byte_writes_fold_every_chunk() {
        let mut a = FastHasher::default();
        a.write(b"0123456789");
        let mut b = FastHasher::default();
        b.write(b"0123456788");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn ids_spread_over_buckets() {
        // The low bits pick the bucket. Consecutive ids, and ids that
        // differ only in high bits, must each reach a good share of
        // 4096 buckets (a uniformly random function reaches ~63 %), not
        // pile into a few.
        for stride in [1u64, 1 << 12, 1 << 40] {
            let mut seen = vec![false; 4096];
            for i in 0u64..4096 {
                seen[(hash_of(i * stride) & 4095) as usize] = true;
            }
            let filled = seen.iter().filter(|&&s| s).count();
            assert!(
                filled > 4096 / 5,
                "stride {stride}: only {filled} of 4096 buckets hit"
            );
        }
    }

    #[test]
    fn iteration_order_depends_only_on_insertions() {
        let build = || {
            let mut m: FastHashMap<u64, u64> = FastHashMap::default();
            for k in [9u64, 1, 77, 4, 1 << 40, 3] {
                m.insert(k, k * 2);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
