//! Sampling Dead Block Prediction (Khan, Tian & Jiménez, MICRO 2010) —
//! a related-work baseline (paper Section VIII: P-OPT "can more accurately
//! identify dead lines because it tracks next references"; Hawkeye and
//! GRASP "were shown to be better than SDBP and Leeway respectively").
//!
//! SDBP learns, per access site, whether a block's *last* access by that
//! site tends to be followed by reuse. Sampled sets observe evictions: a
//! line evicted without reuse trains its last-touching site toward "dead".
//! At access time, a line whose site predicts dead is marked evictable;
//! victims prefer predicted-dead lines and fall back to LRU order.

use crate::fasthash::FastMap;
use crate::{AccessMeta, ReplacementPolicy, VictimCtx};

/// Saturating predictor ceiling (2-bit counters in the original's skewed
/// tables; one table suffices for our site-accurate signatures).
const PRED_MAX: u8 = 3;
/// Counter value at or above which a block is predicted dead.
const DEAD_THRESHOLD: u8 = 2;
/// Every `SAMPLE_STRIDE`-th set trains the predictor.
const SAMPLE_STRIDE: usize = 8;

/// The SDBP replacement policy.
///
/// # Example
///
/// ```
/// use popt_sim::{policies::Sdbp, CacheConfig, SetAssocCache};
///
/// let cfg = CacheConfig::new(64 * 8, 8);
/// let cache = SetAssocCache::new(cfg, Box::new(Sdbp::new(cfg.num_sets(), cfg.ways())));
/// assert_eq!(cache.num_ways(), 8);
/// ```
pub struct Sdbp {
    ways: usize,
    // Per (set, way): recency stamp, last-touching site, predicted-dead
    // flag, and whether the line was reused since fill.
    stamps: Vec<u64>,
    line_site: Vec<u32>,
    line_dead: Vec<bool>,
    line_reused: Vec<bool>,
    clock: u64,
    predictor: FastMap<u32, u8>,
}

impl std::fmt::Debug for Sdbp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sdbp").field("ways", &self.ways).finish()
    }
}

impl Sdbp {
    /// Creates SDBP for `sets × ways`.
    pub fn new(sets: usize, ways: usize) -> Self {
        Sdbp {
            ways,
            stamps: vec![0; sets * ways],
            line_site: vec![0; sets * ways],
            line_dead: vec![false; sets * ways],
            line_reused: vec![false; sets * ways],
            clock: 0,
            predictor: FastMap::default(),
        }
    }

    fn predict_dead(&self, site: u32) -> bool {
        *self.predictor.get(&site).unwrap_or(&0) >= DEAD_THRESHOLD
    }

    fn train(&mut self, site: u32, dead: bool) {
        let c = self.predictor.entry(site).or_insert(0);
        if dead {
            *c = (*c + 1).min(PRED_MAX);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    fn touch(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        let idx = set * self.ways + way;
        self.clock += 1;
        let dead = self.predict_dead(meta.site.0);
        if let Some(stamp) = self.stamps.get_mut(idx) {
            *stamp = self.clock;
        }
        if let Some(site) = self.line_site.get_mut(idx) {
            *site = meta.site.0;
        }
        if let Some(d) = self.line_dead.get_mut(idx) {
            *d = dead;
        }
    }

    /// Sets way `idx`'s reused flag, returning its previous value.
    fn mark_reused(&mut self, idx: usize, reused: bool) -> bool {
        self.line_reused
            .get_mut(idx)
            .map_or(reused, |r| std::mem::replace(r, reused))
    }

    /// Trains the site that last touched way `idx`.
    fn train_line(&mut self, idx: usize, dead: bool) {
        if let Some(&site) = self.line_site.get(idx) {
            self.train(site, dead);
        }
    }
}

impl ReplacementPolicy for Sdbp {
    fn name(&self) -> String {
        "SDBP".to_string()
    }

    fn on_hit(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        let idx = set * self.ways + way;
        let was_reused = self.mark_reused(idx, true);
        if set.is_multiple_of(SAMPLE_STRIDE) && !was_reused {
            // The previous touch was *not* the last: train toward live.
            self.train_line(idx, false);
        }
        self.touch(set, way, meta);
    }

    fn on_fill(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        self.mark_reused(set * self.ways + way, false);
        self.touch(set, way, meta);
    }

    fn on_evict(&mut self, set: usize, way: usize, _line: u64) {
        if !set.is_multiple_of(SAMPLE_STRIDE) {
            return;
        }
        let idx = set * self.ways + way;
        if self.line_reused.get(idx) == Some(&false) {
            // Evicted without any reuse: its site's touches are dead-ends.
            self.train_line(idx, true);
        }
    }

    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        let ways = ctx.set * self.ways..ctx.set * self.ways + ctx.ways.len();
        let (Some(stamps), Some(dead)) = (self.stamps.get(ways.clone()), self.line_dead.get(ways))
        else {
            return 0;
        };
        // Predicted-dead lines first (oldest among them), else plain LRU.
        let oldest = |dead_only: bool| {
            stamps
                .iter()
                .zip(dead)
                .enumerate()
                .filter(|&(_, (_, &d))| d || !dead_only)
                .min_by_key(|&(_, (&stamp, _))| stamp)
                .map(|(w, _)| w)
        };
        oldest(true).or_else(|| oldest(false)).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::one_set_cache;
    use crate::{AccessMeta, SetAssocCache};
    use popt_trace::{AccessKind, RegionClass, SiteId};

    fn read_site(line: u64, site: u32) -> AccessMeta {
        AccessMeta {
            line,
            site: SiteId(site),
            kind: AccessKind::Read,
            class: RegionClass::Streaming,
        }
    }

    fn hits(cache: &mut SetAssocCache, trace: &[(u64, u32)]) -> u64 {
        trace
            .iter()
            .filter(|&&(l, s)| cache.access(&read_site(l, s)).is_hit())
            .count() as u64
    }

    #[test]
    fn learns_a_dead_streaming_site() {
        let mut trace = Vec::new();
        let mut dead = 100u64;
        for _ in 0..400 {
            for hot in 0..4u64 {
                trace.push((hot, 1));
            }
            for _ in 0..6 {
                trace.push((dead, 2));
                dead += 1;
            }
        }
        let mut sdbp = one_set_cache(8, Box::new(Sdbp::new(1, 8)));
        let mut lru = one_set_cache(8, Box::new(crate::policies::Lru::new(1, 8)));
        let s = hits(&mut sdbp, &trace);
        let l = hits(&mut lru, &trace);
        assert!(s > l, "SDBP {s} should beat LRU {l} against a dead stream");
    }

    #[test]
    fn falls_back_to_lru_without_dead_predictions() {
        // All lines reuse: SDBP must behave like LRU.
        let trace: Vec<(u64, u32)> = [1u64, 2, 3, 1, 2, 3]
            .iter()
            .map(|&l| (l, 9))
            .cycle()
            .take(300)
            .collect();
        let mut sdbp = one_set_cache(4, Box::new(Sdbp::new(1, 4)));
        let mut lru = one_set_cache(4, Box::new(crate::policies::Lru::new(1, 4)));
        assert_eq!(hits(&mut sdbp, &trace), hits(&mut lru, &trace));
    }

    #[test]
    fn predictor_counters_saturate_both_ways() {
        let mut p = Sdbp::new(1, 4);
        for _ in 0..10 {
            p.train(5, true);
        }
        assert!(p.predict_dead(5));
        for _ in 0..10 {
            p.train(5, false);
        }
        assert!(!p.predict_dead(5));
    }
}
