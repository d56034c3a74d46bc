//! A deterministic multiplicative hasher for the policies' learned
//! tables, which are keyed by small integers (access sites, lines) and
//! probed on every access or victim search.
//!
//! `std`'s default SipHash is keyed per process and built to resist
//! collision attacks that a simulator's own keys cannot mount; this is
//! one 64×64→128-bit multiply per key. No table hashed here is ever
//! iterated into an output, so the hash function cannot move a result.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 divided by the golden ratio (odd, so the multiply is a bijection).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folded-multiply hasher: both halves of the 128-bit product feed the
/// hash, so keys that differ only in their high bits (the lines of one
/// cache set) still spread across the low bits that pick a bucket.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FastHasher(u64);

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    // Truncating each half of the product to 64 bits is the fold.
    #[allow(clippy::cast_possible_truncation)]
    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * u128::from(MULTIPLIER);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`FastHasher`]s; stateless, so every map hashes alike in
/// every process.
pub(crate) type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` under [`FastBuildHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hashing_is_deterministic_and_spreads_set_aligned_keys() {
        let build = FastBuildHasher::default();
        assert_eq!(
            build.hash_one(42u64),
            FastBuildHasher::default().hash_one(42u64)
        );
        assert_eq!(build.hash_one(7u32), build.hash_one(7u64), "widths agree");
        // Lines that share one of 1024 sets differ only above bit 10; the
        // low bits that index buckets must still take many values.
        let low: std::collections::BTreeSet<u64> = (0..256u64)
            .map(|j| build.hash_one(5 + j * 1024) & 0xff)
            .collect();
        assert!(low.len() > 128, "only {} distinct low bytes", low.len());
    }

    #[test]
    fn a_fast_map_behaves_like_a_map() {
        let mut m: FastMap<u32, u16> = FastMap::default();
        for k in 0..1000u32 {
            *m.entry(k % 97).or_insert(0) += 1;
        }
        assert_eq!(m.len(), 97);
        assert_eq!(m.get(&3), Some(&11));
        assert_eq!(m.get(&96), Some(&10));
    }
}
