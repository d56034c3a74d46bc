//! Leeway (Faldu & Grot, PACT 2017) — dead-block prediction with *live
//! distances*, the second dead-block baseline the paper positions itself
//! against (Section VIII: GRASP was "shown to be better than Leeway").
//!
//! Where SDBP predicts a binary dead/live per access site, Leeway learns a
//! per-site **live distance**: how many set accesses a block typically
//! stays useful after its last hit. A block whose age since last touch
//! exceeds its site's live distance is predicted dead and becomes the
//! preferred victim. Variability-tolerant updates: live distances grow
//! fast (any underestimate that caused a premature eviction) and decay
//! slowly.

use crate::fasthash::FastMap;
use crate::{AccessMeta, ReplacementPolicy, VictimCtx};
use popt_graph::cast;

/// Ceiling on learned live distances (in set-relative access counts).
const LIVE_DISTANCE_MAX: u16 = 255;

/// The Leeway replacement policy.
///
/// # Example
///
/// ```
/// use popt_sim::{policies::Leeway, CacheConfig, SetAssocCache};
///
/// let cfg = CacheConfig::new(64 * 8, 8);
/// let cache = SetAssocCache::new(cfg, Box::new(Leeway::new(cfg.num_sets(), cfg.ways())));
/// assert_eq!(cache.num_ways(), 8);
/// ```
pub struct Leeway {
    ways: usize,
    // Per (set, way): age bookkeeping and the owning site.
    last_touch: Vec<u64>,
    line_site: Vec<u32>,
    // Age of each block's most recent hit (0 until it hits) — the block's
    // *observed* live distance, harvested at eviction time.
    line_last_hit_age: Vec<u16>,
    // Per set: its local access clock.
    set_clock: Vec<u64>,
    // Per site: learned live distance.
    live_distance: FastMap<u32, u16>,
}

impl std::fmt::Debug for Leeway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Leeway").field("ways", &self.ways).finish()
    }
}

impl Leeway {
    /// Creates Leeway for `sets × ways`.
    pub fn new(sets: usize, ways: usize) -> Self {
        Leeway {
            ways,
            last_touch: vec![0; sets * ways],
            line_site: vec![0; sets * ways],
            line_last_hit_age: vec![0; sets * ways],
            set_clock: vec![0; sets],
            live_distance: FastMap::default(),
        }
    }

    fn live_distance_of(&self, site: u32) -> u16 {
        self.live_distance
            .get(&site)
            .copied()
            .unwrap_or(LIVE_DISTANCE_MAX)
    }

    /// A block's age in set accesses since its last touch.
    ///
    /// `last_touch` is only ever written by [`touch`](Self::touch), which
    /// copies the current `set_clock` — a `u64` counter that increments
    /// once per demand lookup and therefore never wraps in any feasible
    /// run. That holds on the prefetch path too: a fill without a
    /// preceding `on_access` stamps the *current* clock, so
    /// `last_touch <= set_clock` is an invariant and the subtraction
    /// cannot underflow. The saturating form is defensive only — if the
    /// invariant were ever broken, an inverted clock reads as age 0 (a
    /// freshly touched block) rather than wrapping to ~2^64, which would
    /// make the block the unconditional victim of every decision.
    fn age(&self, set: usize, way: usize) -> u64 {
        let touched = self.last_touch.get(set * self.ways + way);
        self.clock(set)
            .saturating_sub(touched.copied().unwrap_or(0))
    }

    /// `set`'s access clock.
    fn clock(&self, set: usize) -> u64 {
        self.set_clock.get(set).copied().unwrap_or(0)
    }

    fn touch(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        let idx = set * self.ways + way;
        let clock = self.clock(set);
        if let Some(stamp) = self.last_touch.get_mut(idx) {
            *stamp = clock;
        }
        if let Some(site) = self.line_site.get_mut(idx) {
            *site = meta.site.0;
        }
    }

    /// The site's live-distance estimate, created at the ceiling on first
    /// use.
    fn estimate(&mut self, site: u32) -> &mut u16 {
        self.live_distance.entry(site).or_insert(LIVE_DISTANCE_MAX)
    }
}

impl ReplacementPolicy for Leeway {
    fn name(&self) -> String {
        "Leeway".to_string()
    }

    fn on_access(&mut self, set: usize, _meta: &AccessMeta) {
        if let Some(clock) = self.set_clock.get_mut(set) {
            *clock += 1;
        }
    }

    fn on_hit(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        // The block proved live at this age: record it as the block's
        // observed live distance and grow the site's estimate to cover it
        // immediately (fast upward adaptation — underestimates cause
        // premature evictions).
        let age = cast::saturate::<u16, u64>(self.age(set, way)).min(LIVE_DISTANCE_MAX);
        let idx = set * self.ways + way;
        if let Some(last_hit_age) = self.line_last_hit_age.get_mut(idx) {
            *last_hit_age = (*last_hit_age).max(age);
        }
        if let Some(&site) = self.line_site.get(idx) {
            let entry = self.estimate(site);
            *entry = (*entry).max(age);
        }
        self.touch(set, way, meta);
    }

    fn on_fill(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        if let Some(last_hit_age) = self.line_last_hit_age.get_mut(set * self.ways + way) {
            *last_hit_age = 0;
        }
        self.touch(set, way, meta);
    }

    fn on_evict(&mut self, set: usize, way: usize, _line: u64) {
        // Harvest the block's observed live distance (age of its last hit;
        // 0 if it never hit). Shrink the site estimate halfway toward the
        // observation — the slow downward leg of Leeway's
        // variability-tolerant update.
        let idx = set * self.ways + way;
        let (Some(&observed), Some(&site)) =
            (self.line_last_hit_age.get(idx), self.line_site.get(idx))
        else {
            return;
        };
        let entry = self.estimate(site);
        if observed < *entry {
            *entry -= (*entry - observed).div_ceil(2);
        }
    }

    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        let ways = ctx.set * self.ways..ctx.set * self.ways + ctx.ways.len();
        let (Some(touched), Some(sites)) =
            (self.last_touch.get(ways.clone()), self.line_site.get(ways))
        else {
            return 0;
        };
        let clock = self.clock(ctx.set);
        // Prefer the block furthest past its live distance; fall back to
        // the oldest block (LRU order by last touch).
        let mut best_dead: Option<(usize, u64)> = None;
        // Neighboring ways mostly share a site: look each run up once.
        let mut last: Option<(u32, u64)> = None;
        for (w, (&stamp, &site)) in touched.iter().zip(sites).enumerate() {
            let age = clock.saturating_sub(stamp);
            let live = match last {
                Some((s, live)) if s == site => live,
                _ => u64::from(self.live_distance_of(site)),
            };
            last = Some((site, live));
            if age > live {
                let overshoot = age - live;
                if best_dead.is_none_or(|(_, o)| overshoot > o) {
                    best_dead = Some((w, overshoot));
                }
            }
        }
        if let Some((w, _)) = best_dead {
            return w;
        }
        touched
            .iter()
            .enumerate()
            .max_by_key(|&(_, &stamp)| clock.saturating_sub(stamp))
            .map_or(0, |(w, _)| w)
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
    fn ages_never_invert_even_on_prefetch_shaped_fills() {
        // Regression for the set-clock audit: `age` must hold
        // `last_touch <= set_clock` on every path, including a fill with no
        // preceding `on_access` (the prefetch shape). An inversion hidden
        // by `saturating_sub` would read as a bogus age.
        let mut p = Leeway::new(1, 2);
        let demand = read_site(1, 1);
        p.on_access(0, &demand);
        p.on_fill(0, 0, &demand);
        assert_eq!(p.age(0, 0), 0, "a just-filled block has age 0");
        // Prefetch-shaped fill: no on_access, clock unchanged.
        p.on_fill(0, 1, &read_site(2, 2));
        assert_eq!(p.age(0, 1), 0, "a prefetched block starts at age 0");
        // Subsequent demand traffic ages both blocks in lockstep.
        for _ in 0..5 {
            p.on_access(0, &demand);
        }
        assert_eq!(p.age(0, 0), 5);
        assert_eq!(p.age(0, 1), 5);
        // The invariant itself: no stored stamp exceeds its set clock.
        for way in 0..2 {
            assert!(p.last_touch[way] <= p.set_clock[0]);
        }
    }

    #[test]
    fn learns_short_live_distances_for_streams() {
        // Hot lines (site 1) re-reference every 10 accesses — just past the
        // LRU horizon under the dead flood (site 2, never re-touched).
        // Leeway learns live(site 2) ~ 0 from never-hit evictions and keeps
        // live(site 1) high, so the dead blocks become preferred victims
        // and the hot set survives.
        let mut trace = Vec::new();
        let mut dead = 100u64;
        for _ in 0..500 {
            for hot in 0..4u64 {
                trace.push((hot, 1));
            }
            for _ in 0..6 {
                trace.push((dead, 2));
                dead += 1;
            }
        }
        let mut leeway = one_set_cache(8, Box::new(Leeway::new(1, 8)));
        let mut lru = one_set_cache(8, Box::new(crate::policies::Lru::new(1, 8)));
        let le = hits(&mut leeway, &trace);
        let lr = hits(&mut lru, &trace);
        assert!(
            le > lr,
            "Leeway {le} should beat LRU {lr} against a dead stream"
        );
    }

    #[test]
    fn falls_back_to_lru_when_nothing_is_dead() {
        let trace: Vec<(u64, u32)> = [1u64, 2, 3, 1, 2, 3]
            .iter()
            .map(|&l| (l, 5))
            .cycle()
            .take(240)
            .collect();
        let mut leeway = one_set_cache(4, Box::new(Leeway::new(1, 4)));
        let mut lru = one_set_cache(4, Box::new(crate::policies::Lru::new(1, 4)));
        assert_eq!(hits(&mut leeway, &trace), hits(&mut lru, &trace));
    }

    #[test]
    fn live_distances_shrink_on_dead_evictions_and_grow_on_hits() {
        let mut p = Leeway::new(1, 2);
        // Fill a line from site 7, never hit it, evict: the observed live
        // distance is 0 and the estimate halves toward it.
        p.on_access(0, &read_site(0, 7));
        p.on_fill(0, 0, &read_site(0, 7));
        for _ in 0..20 {
            p.on_access(0, &read_site(1, 7));
        }
        p.on_evict(0, 0, 0);
        let after_one = p.live_distance_of(7);
        assert!(after_one < LIVE_DISTANCE_MAX);
        for _ in 0..10 {
            p.on_fill(0, 0, &read_site(0, 7));
            p.on_evict(0, 0, 0);
        }
        assert_eq!(p.live_distance_of(7), 0, "never-hit site collapses to 0");
        // A hit at age 30 grows it back instantly.
        p.on_fill(0, 0, &read_site(0, 7));
        for _ in 0..30 {
            p.on_access(0, &read_site(1, 7));
        }
        p.on_hit(0, 0, &read_site(0, 7));
        assert!(p.live_distance_of(7) >= 30);
    }
}
