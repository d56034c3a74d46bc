use crate::{AccessMeta, ReplacementPolicy, VictimCtx};

/// Bit-PLRU replacement — the paper's L1/L2 policy (Table I).
///
/// Each way has an MRU bit. Hits and fills set the bit; when every bit in a
/// set would become set, all other bits clear first. The victim is the
/// lowest-indexed way with a clear bit.
///
/// # Example
///
/// ```
/// use popt_sim::{policies::BitPlru, CacheConfig, SetAssocCache};
///
/// let cfg = CacheConfig::new(64 * 8, 8);
/// let cache = SetAssocCache::new(cfg, Box::new(BitPlru::new(cfg.num_sets(), cfg.ways())));
/// assert_eq!(cache.num_ways(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct BitPlru {
    /// One bit per way: the value a set's MRU word would reach when full.
    all: u64,
    mru: Vec<u64>,
}

impl BitPlru {
    /// Creates a Bit-PLRU policy for `sets × ways`.
    ///
    /// # Panics
    ///
    /// Panics if `ways > 64` (bits are packed into one word per set).
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(ways <= 64, "BitPlru supports at most 64 ways");
        BitPlru {
            all: if ways == 64 {
                u64::MAX
            } else {
                (1u64 << ways) - 1
            },
            mru: vec![0; sets],
        }
    }

    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        let bit = 1u64 << way;
        if self.mru[set] | bit == self.all {
            self.mru[set] = bit;
        } else {
            self.mru[set] |= bit;
        }
    }
}

impl ReplacementPolicy for BitPlru {
    fn name(&self) -> String {
        "Bit-PLRU".to_string()
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.touch(set, way);
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.touch(set, way);
    }

    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        // Lowest way with a clear MRU bit; way 0 if every data way is set.
        let w = (!self.mru[ctx.set]).trailing_zeros() as usize;
        if w < ctx.ways.len() {
            w
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::{one_set_cache, read, run_lines};

    #[test]
    fn recently_touched_ways_survive() {
        let mut c = one_set_cache(4, Box::new(BitPlru::new(1, 4)));
        for l in [1u64, 2, 3, 4] {
            c.access(&read(l, 0));
        }
        // Touch 4 (fill wrapped MRU bits: only way of 4 set). Touch 1 and 2.
        c.access(&read(1, 0));
        c.access(&read(2, 0));
        c.access(&read(9, 0)); // should evict 3 or 4's way, never 1/2
        assert!(c.contains(1) && c.contains(2));
    }

    #[test]
    fn behaves_like_lru_for_two_ways() {
        // With 2 ways Bit-PLRU and LRU agree on victims.
        let trace: Vec<u64> = [1u64, 2, 1, 3, 2, 1, 3, 3, 2, 1].repeat(20);
        let mut plru = one_set_cache(2, Box::new(BitPlru::new(1, 2)));
        let mut lru = one_set_cache(2, Box::new(crate::policies::Lru::new(1, 2)));
        assert_eq!(run_lines(&mut plru, &trace), run_lines(&mut lru, &trace));
    }

    #[test]
    fn approximates_lru_on_loops() {
        let mut c = one_set_cache(8, Box::new(BitPlru::new(1, 8)));
        let trace: Vec<u64> = (0..6u64).cycle().take(600).collect();
        // Working set (6) fits in 8 ways: everything after warmup hits.
        assert_eq!(run_lines(&mut c, &trace), 600 - 6);
    }
}
