//! Hawkeye (Jain & Lin [28]): retroactive Belady simulation.
//!
//! Hawkeye runs *OPTgen* on a sample of cache sets: it replays the access
//! history and decides, access by access, whether Belady's MIN would have
//! hit. The verdicts train a per-PC predictor; fills predicted
//! cache-friendly insert protected, fills predicted cache-averse insert
//! dead-on-arrival.
//!
//! The paper's critique (Section II-B) is structural: Hawkeye "use[s] the
//! PC to predict re-reference, assuming all accesses by an instruction have
//! the same reuse properties", which graph kernels violate — the one
//! `srcData[src]` load touches both hub vertices (high reuse) and leaf
//! vertices (no reuse).

use crate::fasthash::FastMap;
use crate::{AccessMeta, ReplacementPolicy, VictimCtx};

/// 3-bit RRPV ceiling used by Hawkeye.
const RRPV_MAX: u8 = 7;
/// Predictor counter ceiling (3-bit) and friendliness threshold.
const PRED_MAX: u8 = 7;
const PRED_FRIENDLY: u8 = 4;
/// Every `SAMPLE_STRIDE`-th set feeds OPTgen.
const SAMPLE_STRIDE: usize = 16;
/// OPTgen history window, in accesses per sampled set, as a multiple of
/// associativity.
const WINDOW_FACTOR: usize = 8;

/// Per-sampled-set OPTgen state.
#[derive(Debug, Clone)]
struct OptGen {
    capacity: usize,
    window: usize,
    time: u64,
    occupancy: Vec<u8>,
    last_access: FastMap<u64, (u64, u32)>,
}

impl OptGen {
    fn new(capacity: usize) -> Self {
        let window = capacity * WINDOW_FACTOR;
        OptGen {
            capacity,
            window,
            time: 0,
            occupancy: vec![0; window],
            last_access: FastMap::default(),
        }
    }

    /// Feeds one access; returns `Some((trained_site, opt_hit))` when the
    /// line has a previous access to judge.
    fn access(&mut self, line: u64, site: u32) -> Option<(u32, bool)> {
        let now = self.time;
        let window = self.window as u64;
        let verdict = match self.last_access.get(&line) {
            Some(&(prev, prev_site)) => {
                if now - prev < window {
                    let slots = (prev..now).map(|t| (t % window) as usize);
                    let fits = slots.clone().all(|slot| {
                        self.occupancy
                            .get(slot)
                            .is_some_and(|&o| usize::from(o) < self.capacity)
                    });
                    if fits {
                        for slot in slots {
                            if let Some(o) = self.occupancy.get_mut(slot) {
                                *o += 1;
                            }
                        }
                    }
                    Some((prev_site, fits))
                } else {
                    // Reuse distance beyond the modeled window: MIN would miss.
                    Some((prev_site, false))
                }
            }
            None => None,
        };
        if let Some(o) = self.occupancy.get_mut((now % window) as usize) {
            *o = 0;
        }
        self.last_access.insert(line, (now, site));
        // Keep the map bounded: drop entries that fell out of the window
        // occasionally.
        if self.last_access.len() > 4 * self.window {
            self.last_access.retain(|_, &mut (t, _)| now - t < window);
        }
        self.time += 1;
        verdict
    }
}

/// The Hawkeye replacement policy.
///
/// # Example
///
/// ```
/// use popt_sim::{policies::Hawkeye, CacheConfig, SetAssocCache};
///
/// let cfg = CacheConfig::new(64 * 8, 8);
/// let cache = SetAssocCache::new(cfg, Box::new(Hawkeye::new(cfg.num_sets(), cfg.ways())));
/// assert_eq!(cache.num_ways(), 8);
/// ```
pub struct Hawkeye {
    sets: usize,
    ways: usize,
    rrpv: Vec<u8>,
    line_site: Vec<u32>,
    line_friendly: Vec<bool>,
    predictor: FastMap<u32, u8>,
    /// OPTgen for every `SAMPLE_STRIDE`-th set, indexed by
    /// `set / SAMPLE_STRIDE`.
    samplers: Vec<OptGen>,
}

impl std::fmt::Debug for Hawkeye {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hawkeye")
            .field("sets", &self.sets)
            .field("ways", &self.ways)
            .finish()
    }
}

impl Hawkeye {
    /// Creates Hawkeye for `sets × ways`.
    pub fn new(sets: usize, ways: usize) -> Self {
        Hawkeye {
            sets,
            ways,
            rrpv: vec![RRPV_MAX; sets * ways],
            line_site: vec![0; sets * ways],
            line_friendly: vec![false; sets * ways],
            predictor: FastMap::default(),
            samplers: (0..sets.div_ceil(SAMPLE_STRIDE))
                .map(|_| OptGen::new(ways))
                .collect(),
        }
    }

    fn predict_friendly(&self, site: u32) -> bool {
        *self.predictor.get(&site).unwrap_or(&PRED_FRIENDLY) >= PRED_FRIENDLY
    }

    /// Records a hit or fill of way `idx` (`set * ways + way`).
    fn stamp(&mut self, idx: usize, site: u32, friendly: bool, rrpv: u8) {
        if let Some(r) = self.rrpv.get_mut(idx) {
            *r = rrpv;
        }
        if let Some(s) = self.line_site.get_mut(idx) {
            *s = site;
        }
        if let Some(f) = self.line_friendly.get_mut(idx) {
            *f = friendly;
        }
    }

    fn train(&mut self, site: u32, positive: bool) {
        let c = self.predictor.entry(site).or_insert(PRED_FRIENDLY);
        if positive {
            *c = (*c + 1).min(PRED_MAX);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

impl ReplacementPolicy for Hawkeye {
    fn name(&self) -> String {
        "Hawkeye".to_string()
    }

    fn on_access(&mut self, set: usize, meta: &AccessMeta) {
        if !set.is_multiple_of(SAMPLE_STRIDE) {
            return;
        }
        let Some(sampler) = self.samplers.get_mut(set / SAMPLE_STRIDE) else {
            return;
        };
        if let Some((site, opt_hit)) = sampler.access(meta.line, meta.site.0) {
            self.train(site, opt_hit);
        }
    }

    fn on_hit(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        let friendly = self.predict_friendly(meta.site.0);
        self.stamp(set * self.ways + way, meta.site.0, friendly, 0);
    }

    fn on_fill(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        let friendly = self.predict_friendly(meta.site.0);
        let rrpv = if friendly {
            // Age everyone else so old friendly lines eventually yield.
            let base = set * self.ways;
            if let Some(rrpvs) = self.rrpv.get_mut(base..base + self.ways) {
                for (w, r) in rrpvs.iter_mut().enumerate() {
                    if w != way && *r < RRPV_MAX - 1 {
                        *r += 1;
                    }
                }
            }
            0
        } else {
            RRPV_MAX
        };
        self.stamp(set * self.ways + way, meta.site.0, friendly, rrpv);
    }

    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        let base = ctx.set * self.ways;
        let Some(rrpvs) = self.rrpv.get(base..base + ctx.ways.len()) else {
            return 0;
        };
        // Cache-averse lines (RRPV == max) go first.
        if let Some(w) = rrpvs.iter().position(|&r| r == RRPV_MAX) {
            return w;
        }
        // Otherwise evict the oldest friendly line and detrain its site:
        // the prediction was wrong.
        let w = rrpvs
            .iter()
            .enumerate()
            .max_by_key(|&(_, &r)| r)
            .map_or(0, |(w, _)| w);
        if self.line_friendly.get(base + w) == Some(&true) {
            if let Some(&site) = self.line_site.get(base + w) {
                self.train(site, false);
            }
        }
        w
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
    fn optgen_reports_hits_within_capacity() {
        let mut g = OptGen::new(2);
        assert_eq!(g.access(1, 0), None);
        assert_eq!(g.access(2, 0), None);
        // Reuse of 1 with interval occupancy below capacity: MIN hit.
        assert_eq!(g.access(1, 0), Some((0, true)));
    }

    #[test]
    fn optgen_reports_misses_beyond_capacity() {
        // OPTgen models MIN *with bypass*: a line only occupies space over
        // intervals where it ends in a hit. Force slot 1 to be occupied by a
        // reused line (2), then line 1's reuse interval no longer fits in a
        // capacity-1 cache.
        let mut g = OptGen::new(1);
        g.access(1, 5); // t0
        g.access(2, 6); // t1
        let (_, hit2) = g.access(2, 6).unwrap(); // t2: occupies slot t1
        assert!(hit2);
        let (_site, hit1) = g.access(1, 5).unwrap(); // t3: interval [t0,t3) full at t1
        assert!(
            !hit1,
            "capacity-1 OPT cannot keep line 1 across line 2's liveness"
        );
    }

    #[test]
    fn hawkeye_learns_dead_site_and_beats_lru() {
        // Note set 0 is a sampled set in a 1-set cache.
        let mut trace = Vec::new();
        let mut dead = 500u64;
        for _ in 0..500 {
            for hot in 0..4u64 {
                trace.push((hot, 1));
            }
            for _ in 0..6 {
                trace.push((dead, 2));
                dead += 1;
            }
        }
        let mut hawkeye = one_set_cache(8, Box::new(Hawkeye::new(1, 8)));
        let mut lru = one_set_cache(8, Box::new(crate::policies::Lru::new(1, 8)));
        let h = hits(&mut hawkeye, &trace);
        let l = hits(&mut lru, &trace);
        assert!(h > l, "Hawkeye {h} should beat LRU {l}");
    }

    #[test]
    fn detraining_recovers_from_wrong_predictions() {
        let mut hk = Hawkeye::new(1, 2);
        hk.train(9, true);
        assert!(hk.predict_friendly(9));
        for _ in 0..10 {
            hk.train(9, false);
        }
        assert!(!hk.predict_friendly(9));
    }
}
