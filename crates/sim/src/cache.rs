use crate::{AccessMeta, CacheConfig, CacheStats, ControlEvent, ReplacementPolicy, VictimCtx};
use popt_trace::AccessKind;

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was installed; if a valid line was displaced, its line
    /// number and dirtiness are reported so the caller can account for
    /// writebacks.
    Miss {
        /// Displaced line, if the chosen way held one.
        evicted: Option<u64>,
        /// Whether the displaced line was dirty.
        evicted_dirty: bool,
    },
}

impl AccessOutcome {
    /// Whether the lookup hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Tag of an empty way. Line numbers are byte addresses shifted right by
/// the line size, so no real placement can equal it, and one compare per
/// way checks validity and tag together.
const INVALID: u64 = u64::MAX;

/// A single set-associative cache (or one NUCA bank of the LLC).
///
/// Way partitioning: the last `reserved_ways` ways of every set are never
/// offered for replacement, modeling Intel CAT-style reservation of LLC
/// capacity for Rereference Matrix columns (paper Section V-A). The policy
/// only ever sees the remaining *data ways*.
///
/// The policy type is a parameter so the private levels can inline their
/// Bit-PLRU ([`SetAssocCache::with_policy`]); it defaults to a boxed
/// policy, which is what [`SetAssocCache::new`] builds and the LLC banks
/// use.
pub struct SetAssocCache<P = Box<dyn ReplacementPolicy>> {
    sets: usize,
    ways: usize,
    data_ways: usize,
    /// `sets - 1` when `sets` is a power of two (set index by mask);
    /// `None` selects the `%` path, e.g. the 3072-set Table I bank.
    set_mask: Option<u64>,
    // Flattened [set][way] arrays. `tags` holds the *placement* line (bank-
    // local in a NUCA LLC), or `INVALID`; `global` holds the original
    // global line number, which is what policies reason about (base/bound
    // checks, matrix rows).
    tags: Vec<u64>,
    global: Vec<u64>,
    dirty: Vec<bool>,
    policy: P,
    stats: CacheStats,
}

impl<P: ReplacementPolicy> std::fmt::Debug for SetAssocCache<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("sets", &self.sets)
            .field("ways", &self.ways)
            .field("data_ways", &self.data_ways)
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl SetAssocCache {
    /// Creates a cache with the given geometry and boxed policy, with no
    /// reserved ways.
    pub fn new(config: CacheConfig, policy: Box<dyn ReplacementPolicy>) -> Self {
        Self::with_reserved_ways(config, policy, 0)
    }

    /// Creates a cache reserving the top `reserved_ways` ways of every set.
    ///
    /// # Panics
    ///
    /// Panics if `reserved_ways >= ways`.
    pub fn with_reserved_ways(
        config: CacheConfig,
        policy: Box<dyn ReplacementPolicy>,
        reserved_ways: usize,
    ) -> Self {
        Self::build(config, policy, reserved_ways)
    }
}

impl<P: ReplacementPolicy> SetAssocCache<P> {
    /// Creates a cache whose policy is a concrete type, so every policy
    /// hook is a direct (inlinable) call — the private levels' Bit-PLRU.
    pub fn with_policy(config: CacheConfig, policy: P) -> Self {
        Self::build(config, policy, 0)
    }

    fn build(config: CacheConfig, policy: P, reserved_ways: usize) -> Self {
        let (sets, ways) = (config.num_sets(), config.ways());
        assert!(reserved_ways < ways, "at least one data way is required");
        let n = sets * ways;
        SetAssocCache {
            sets,
            ways,
            data_ways: ways - reserved_ways,
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            tags: vec![INVALID; n],
            global: vec![0; n],
            dirty: vec![false; n],
            policy,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets
    }

    /// Total associativity (including reserved ways).
    pub fn num_ways(&self) -> usize {
        self.ways
    }

    /// Ways available for demand data.
    pub fn data_ways(&self) -> usize {
        self.data_ways
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The replacement policy (for overhead queries).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The set `placement` maps to: a mask when the set count is a power
    /// of two, `%` otherwise. Both give `placement mod sets`.
    #[inline]
    fn set_of(&self, placement: u64) -> usize {
        let set = match self.set_mask {
            Some(mask) => placement & mask,
            None => placement % self.sets as u64,
        };
        set as usize
    }

    /// The data way of `set` holding `placement`, if resident.
    ///
    /// # Panics
    ///
    /// Panics if `placement` is the empty-way tag, which no line number
    /// can be.
    #[inline]
    fn probe(&self, set: usize, placement: u64) -> Option<usize> {
        assert!(placement != INVALID, "{placement:#x} is not a line number");
        let base = set * self.ways;
        self.tags[base..base + self.data_ways]
            .iter()
            .position(|&t| t == placement)
    }

    /// Whether `line` is currently resident (diagnostic; does not touch
    /// replacement state).
    pub fn contains(&self, line: u64) -> bool {
        self.probe(self.set_of(line), line).is_some()
    }

    /// Forwards a software control event to the policy.
    pub fn control(&mut self, event: &ControlEvent) {
        self.policy.on_control(event);
    }

    /// Performs one demand access, placing the line by `meta.line` itself.
    ///
    /// On a miss the line is installed (write-allocate); writes dirty the
    /// line.
    #[inline]
    pub fn access(&mut self, meta: &AccessMeta) -> AccessOutcome {
        self.access_placed(meta, meta.line)
    }

    /// Performs one demand access with an explicit *placement* line.
    ///
    /// In a NUCA LLC the hierarchy renumbers lines bank-locally so
    /// consecutive resident lines spread across a bank's sets; `placement`
    /// is that local number while `meta.line` stays the global line, which
    /// is what policies see (their `irreg_base`/`bound` checks and
    /// Rereference Matrix rows are defined on global addresses, exactly as
    /// the paper's per-bank next-ref engines operate on physical
    /// addresses).
    #[inline]
    pub fn access_placed(&mut self, meta: &AccessMeta, placement: u64) -> AccessOutcome {
        let set = self.set_of(placement);
        self.policy.on_access(set, meta);
        if let Some(w) = self.probe(set, placement) {
            self.stats.record(true, meta.class);
            if meta.kind == AccessKind::Write {
                self.dirty[set * self.ways + w] = true;
            }
            self.policy.on_hit(set, w, meta);
            return AccessOutcome::Hit;
        }
        self.stats.record(false, meta.class);
        let (way, evicted, evicted_dirty) = self.make_room(set, meta);
        self.install(set, way, placement, meta, meta.kind == AccessKind::Write);
        AccessOutcome::Miss {
            evicted,
            evicted_dirty,
        }
    }

    /// Installs a line without recording demand statistics (prefetch).
    /// Returns `true` if the line was newly installed, `false` if it was
    /// already resident. Evictions and writebacks are accounted normally.
    pub fn prefetch_placed(&mut self, meta: &AccessMeta, placement: u64) -> bool {
        let set = self.set_of(placement);
        if self.probe(set, placement).is_some() {
            return false;
        }
        let (way, _, _) = self.make_room(set, meta);
        self.install(set, way, placement, meta, false);
        true
    }

    /// Frees a data way of `set` for a fill: the first empty way, else the
    /// policy's victim, which is evicted here (`on_evict`, eviction and
    /// writeback counts). Returns the way plus the displaced global line
    /// and whether it was dirty.
    fn make_room(&mut self, set: usize, meta: &AccessMeta) -> (usize, Option<u64>, bool) {
        let base = set * self.ways;
        let data = base..base + self.data_ways;
        if let Some(w) = self.tags[data.clone()].iter().position(|&t| t == INVALID) {
            return (w, None, false);
        }
        let ctx = VictimCtx {
            set,
            ways: &self.global[data],
            incoming: meta,
        };
        let w = self.policy.victim(&ctx);
        // An out-of-range victim would silently overwrite a reserved way
        // (or another set's line), with no stats trail to catch it.
        assert!(
            w < self.data_ways,
            "policy {} chose way {w} beyond data ways",
            self.policy.name()
        );
        let i = base + w;
        let old = self.global[i];
        let was_dirty = self.dirty[i];
        self.policy.on_evict(set, w, old);
        self.stats.evictions += 1;
        if was_dirty {
            self.stats.writebacks += 1;
        }
        (w, Some(old), was_dirty)
    }

    /// Writes `meta`'s line into `way` of `set` and tells the policy.
    fn install(&mut self, set: usize, way: usize, placement: u64, meta: &AccessMeta, dirty: bool) {
        let i = set * self.ways + way;
        self.tags[i] = placement;
        self.global[i] = meta.line;
        self.dirty[i] = dirty;
        self.policy.on_fill(set, way, meta);
    }

    /// Absorbs a writeback arriving from an upper level: if the line is
    /// resident (by placement) it is marked dirty and the writeback stops
    /// here; otherwise the caller forwards it toward DRAM (writebacks do
    /// not allocate — the usual non-inclusive simplification). Returns
    /// `true` if absorbed.
    pub fn absorb_writeback(&mut self, placement: u64) -> bool {
        let set = self.set_of(placement);
        match self.probe(set, placement) {
            Some(w) => {
                self.dirty[set * self.ways + w] = true;
                true
            }
            None => false,
        }
    }

    /// Invalidates one line by placement (coherence). The copy is dropped
    /// without a writeback: the invalidating writer's own fill supersedes
    /// it. Returns whether a copy existed.
    pub fn invalidate_line(&mut self, placement: u64) -> bool {
        let set = self.set_of(placement);
        match self.probe(set, placement) {
            Some(w) => {
                let i = set * self.ways + w;
                self.tags[i] = INVALID;
                self.dirty[i] = false;
                true
            }
            None => false,
        }
    }

    /// Invalidates every line (context switch / co-running process
    /// pollution). Dirty lines count as writebacks; replacement state is
    /// left to the policy's `ControlEvent::ContextSwitch` handling.
    pub fn invalidate_all(&mut self) {
        for (tag, dirty) in self.tags.iter_mut().zip(&mut self.dirty) {
            if *tag != INVALID && *dirty {
                self.stats.writebacks += 1;
            }
            *tag = INVALID;
            *dirty = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{BitPlru, Lru};
    use popt_trace::{RegionClass, SiteId};

    fn meta(line: u64) -> AccessMeta {
        AccessMeta {
            line,
            site: SiteId(0),
            kind: AccessKind::Read,
            class: RegionClass::Streaming,
        }
    }

    fn tiny_cache(ways: usize) -> SetAssocCache {
        // 1 set of `ways` ways.
        let cfg = CacheConfig::new(64 * ways, ways);
        SetAssocCache::new(cfg, Box::new(Lru::new(cfg.num_sets(), ways)))
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny_cache(2);
        assert!(!c.access(&meta(1)).is_hit());
        assert!(c.access(&meta(1)).is_hit());
        assert!(c.contains(1));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny_cache(2);
        c.access(&meta(1));
        c.access(&meta(2));
        c.access(&meta(1)); // 2 is now LRU
        let out = c.access(&meta(3));
        assert_eq!(
            out,
            AccessOutcome::Miss {
                evicted: Some(2),
                evicted_dirty: false
            }
        );
        assert!(c.contains(1));
        assert!(!c.contains(2));
    }

    #[test]
    fn writes_dirty_lines_and_produce_writebacks() {
        let mut c = tiny_cache(1);
        let mut w = meta(5);
        w.kind = AccessKind::Write;
        c.access(&w);
        c.access(&meta(6)); // evicts dirty 5
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reserved_ways_shrink_effective_associativity() {
        let cfg = CacheConfig::new(64 * 4, 4);
        let mut c =
            SetAssocCache::with_reserved_ways(cfg, Box::new(Lru::new(cfg.num_sets(), 4)), 2);
        assert_eq!(c.data_ways(), 2);
        c.access(&meta(1));
        c.access(&meta(2));
        c.access(&meta(3)); // must evict despite 2 "free" reserved ways
        assert_eq!(c.stats().evictions, 1);
        assert!(!c.contains(1));
    }

    #[test]
    fn sets_are_independent() {
        let cfg = CacheConfig::new(64 * 2 * 2, 2); // 2 sets, 2 ways
        let mut c = SetAssocCache::new(cfg, Box::new(Lru::new(2, 2)));
        // Lines 0 and 2 map to set 0; 1 and 3 to set 1.
        c.access(&meta(0));
        c.access(&meta(2));
        c.access(&meta(1));
        assert!(c.contains(0) && c.contains(2) && c.contains(1));
    }

    #[test]
    fn non_power_of_two_set_counts_index_by_modulo() {
        let cfg = CacheConfig::new(64 * 3 * 2, 2); // 3 sets, 2 ways
        let mut c = SetAssocCache::new(cfg, Box::new(Lru::new(3, 2)));
        assert_eq!(c.num_sets(), 3);
        // Lines 0, 3 and 6 share set 0; 1 and 4 share set 1.
        for line in [0, 3, 1, 4] {
            c.access(&meta(line));
        }
        assert_eq!(c.stats().evictions, 0);
        c.access(&meta(6)); // third line in set 0 evicts LRU line 0
        assert_eq!(c.stats().evictions, 1);
        assert!(!c.contains(0) && c.contains(3) && c.contains(6));
        assert!(c.contains(1) && c.contains(4));
    }

    #[test]
    fn boxed_and_concrete_policies_agree() {
        let cfg = CacheConfig::new(64 * 4 * 4, 4);
        let mut boxed = SetAssocCache::new(cfg, Box::new(BitPlru::new(4, 4)));
        let mut concrete = SetAssocCache::with_policy(cfg, BitPlru::new(4, 4));
        for i in 0..2000u64 {
            let mut m = meta(i.wrapping_mul(0x9e37_79b9) % 37);
            if i % 3 == 0 {
                m.kind = AccessKind::Write;
            }
            assert_eq!(boxed.access(&m), concrete.access(&m), "access {i}");
        }
        assert_eq!(boxed.stats(), concrete.stats());
    }

    #[test]
    #[should_panic(expected = "is not a line number")]
    fn the_empty_way_tag_is_not_a_line() {
        tiny_cache(2).access(&meta(u64::MAX));
    }

    #[test]
    fn invalidated_ways_are_refilled_first() {
        let mut c = tiny_cache(2);
        c.access(&meta(1));
        c.access(&meta(2));
        assert!(c.invalidate_line(1));
        assert!(!c.invalidate_line(1), "already gone");
        c.access(&meta(3)); // takes the freed way: no eviction
        assert_eq!(c.stats().evictions, 0);
        assert!(c.contains(2) && c.contains(3));
    }

    #[test]
    fn absorb_writeback_marks_resident_lines_dirty() {
        let mut c = tiny_cache(2);
        c.access(&meta(3));
        assert!(c.absorb_writeback(3));
        assert!(!c.absorb_writeback(9), "absent lines are not absorbed");
        // The absorbed dirty line produces a writeback when evicted.
        c.access(&meta(5));
        c.access(&meta(7)); // evicts 3 (LRU)
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn prefetch_fill_skips_demand_stats_and_dirties_nothing() {
        let mut c = tiny_cache(2);
        assert!(c.prefetch_placed(&meta(4), 4));
        assert!(!c.prefetch_placed(&meta(4), 4), "already resident");
        assert_eq!(c.stats().demand_accesses(), 0);
        assert!(c.contains(4));
        // Prefetched lines are clean: evicting them writes nothing back.
        c.access(&meta(6));
        c.access(&meta(8));
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn invalidate_all_counts_dirty_writebacks() {
        let mut c = tiny_cache(2);
        let mut w = meta(1);
        w.kind = AccessKind::Write;
        c.access(&w);
        c.access(&meta(2));
        c.invalidate_all();
        assert_eq!(c.stats().writebacks, 1);
        assert!(!c.contains(1) && !c.contains(2));
    }

    /// A policy that violates the victim contract by indexing past
    /// `ctx.ways` — stands in for a buggy way-partitioning policy that
    /// forgets reserved ways are already excluded.
    struct RogueVictim;

    impl crate::ReplacementPolicy for RogueVictim {
        fn name(&self) -> String {
            "rogue".to_string()
        }
        fn on_hit(&mut self, _set: usize, _way: usize, _meta: &AccessMeta) {}
        fn on_fill(&mut self, _set: usize, _way: usize, _meta: &AccessMeta) {}
        fn victim(&mut self, ctx: &crate::VictimCtx<'_>) -> usize {
            ctx.ways.len() // one past the last replaceable way
        }
    }

    fn full_rogue_cache() -> SetAssocCache {
        let cfg = CacheConfig::new(64 * 2, 2);
        let mut c = SetAssocCache::new(cfg, Box::new(RogueVictim));
        c.access(&meta(1));
        c.access(&meta(2)); // set is now full; the next fill needs a victim
        c
    }

    #[test]
    #[should_panic(expected = "beyond data ways")]
    fn out_of_range_victim_panics_on_demand_fill() {
        full_rogue_cache().access(&meta(3));
    }

    /// Regression: the prefetch fill path used to index `base + w` without
    /// the range check the demand path has, so an out-of-range victim
    /// silently overwrote a neighboring set's line (or a reserved way)
    /// instead of panicking.
    #[test]
    #[should_panic(expected = "beyond data ways")]
    fn out_of_range_victim_panics_on_prefetch_fill() {
        full_rogue_cache().prefetch_placed(&meta(3), 3);
    }

    #[test]
    fn irregular_class_is_tracked() {
        let mut c = tiny_cache(2);
        let mut m = meta(9);
        m.class = RegionClass::Irregular;
        c.access(&m);
        c.access(&m);
        assert_eq!(c.stats().irregular_misses, 1);
        assert_eq!(c.stats().irregular_hits, 1);
    }
}
