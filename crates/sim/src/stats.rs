use popt_trace::RegionClass;

/// Hit/miss statistics for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Valid lines displaced to make room.
    pub evictions: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Hits on irregular-region lines.
    pub irregular_hits: u64,
    /// Misses on irregular-region lines.
    pub irregular_misses: u64,
}

impl CacheStats {
    /// Total demand accesses.
    pub fn demand_accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; 0 if no accesses.
    pub fn miss_rate(&self) -> f64 {
        let total = self.demand_accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Misses per kilo-instruction, the paper's headline locality metric.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }

    pub(crate) fn record(&mut self, hit: bool, class: RegionClass) {
        if hit {
            self.hits += 1;
            if class == RegionClass::Irregular {
                self.irregular_hits += 1;
            }
        } else {
            self.misses += 1;
            if class == RegionClass::Irregular {
                self.irregular_misses += 1;
            }
        }
    }

    /// Component-wise sum (used to aggregate NUCA banks).
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            writebacks: self.writebacks + other.writebacks,
            irregular_hits: self.irregular_hits + other.irregular_hits,
            irregular_misses: self.irregular_misses + other.irregular_misses,
        }
    }
}

/// Aggregate statistics of a full hierarchy simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HierarchyStats {
    /// L1 data cache stats.
    pub l1: CacheStats,
    /// L2 stats.
    pub l2: CacheStats,
    /// LLC stats (all banks merged).
    pub llc: CacheStats,
    /// Instructions retired (memory accesses + explicit ticks).
    pub instructions: u64,
    /// Per-bank LLC demand accesses (NUCA load balance diagnostics).
    pub bank_accesses: [u64; 16],
    /// Lines installed by the prefetch engine.
    pub prefetch_fills: u64,
    /// Dirty private-cache victims written straight to DRAM (not resident
    /// in the LLC at writeback time).
    pub dram_writebacks: u64,
    /// Private-cache copies invalidated by other cores' writes
    /// (write-invalidate coherence).
    pub coherence_invalidations: u64,
    /// Policy overheads accumulated at the LLC.
    pub overheads: crate::PolicyOverheads,
}

impl HierarchyStats {
    /// LLC misses per kilo-instruction — the metric of Figures 2/4.
    pub fn llc_mpki(&self) -> f64 {
        self.llc.mpki(self.instructions)
    }

    /// DRAM transfers (demand fills + writebacks), the paper's memory
    /// traffic measure for the PB/PHI study.
    pub fn dram_transfers(&self) -> u64 {
        self.llc.misses + self.llc.writebacks + self.dram_writebacks
    }

    /// Checks the conservation laws every hierarchy run obeys, whatever
    /// its policies:
    ///
    /// * every L1 miss is one L2 access: `l1.misses == l2 accesses`;
    /// * every L2 miss is one LLC access, counted in exactly one bank:
    ///   `l2.misses == llc accesses == Σ bank_accesses`;
    /// * a fill evicts at most one line: `evictions <= misses` at L1 and
    ///   L2, and `llc.evictions <= llc.misses + prefetch_fills`;
    /// * irregular hits and misses are subsets of all hits and misses.
    ///
    /// Returns the first law that fails.
    pub fn check(&self) -> Result<(), StatsViolation> {
        let bank_total: u64 = self.bank_accesses.iter().sum();
        let laws = [
            (
                "l1.misses == l2 accesses",
                self.l1.misses,
                self.l2.demand_accesses(),
            ),
            (
                "l2.misses == llc accesses",
                self.l2.misses,
                self.llc.demand_accesses(),
            ),
            (
                "llc accesses == sum of bank_accesses",
                self.llc.demand_accesses(),
                bank_total,
            ),
        ];
        for (law, lhs, rhs) in laws {
            if lhs != rhs {
                return Err(StatsViolation { law, lhs, rhs });
            }
        }
        let (l1, l2, llc) = (&self.l1, &self.l2, &self.llc);
        let bounds = [
            ("l1.evictions <= l1.misses", l1.evictions, l1.misses),
            ("l2.evictions <= l2.misses", l2.evictions, l2.misses),
            (
                "llc.evictions <= llc.misses + prefetch_fills",
                llc.evictions,
                llc.misses + self.prefetch_fills,
            ),
            ("l1.irregular_hits <= l1.hits", l1.irregular_hits, l1.hits),
            (
                "l1.irregular_misses <= l1.misses",
                l1.irregular_misses,
                l1.misses,
            ),
            ("l2.irregular_hits <= l2.hits", l2.irregular_hits, l2.hits),
            (
                "l2.irregular_misses <= l2.misses",
                l2.irregular_misses,
                l2.misses,
            ),
            (
                "llc.irregular_hits <= llc.hits",
                llc.irregular_hits,
                llc.hits,
            ),
            (
                "llc.irregular_misses <= llc.misses",
                llc.irregular_misses,
                llc.misses,
            ),
        ];
        for (law, lhs, rhs) in bounds {
            if lhs > rhs {
                return Err(StatsViolation { law, lhs, rhs });
            }
        }
        Ok(())
    }
}

/// A conservation law of [`HierarchyStats::check`] that a run broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsViolation {
    /// The law, over the [`HierarchyStats`] fields.
    pub law: &'static str,
    /// Its left-hand side.
    pub lhs: u64,
    /// Its right-hand side.
    pub rhs: u64,
}

impl std::fmt::Display for StatsViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stats conservation violated: {} (lhs {}, rhs {})",
            self.law, self.lhs, self.rhs
        )
    }
}

impl std::error::Error for StatsViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_mpki() {
        let s = CacheStats {
            hits: 75,
            misses: 25,
            ..Default::default()
        };
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
        assert!((s.mpki(1000) - 25.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
        assert_eq!(CacheStats::default().mpki(0), 0.0);
    }

    #[test]
    fn llc_mpki_is_zero_before_any_instruction_retires() {
        // A hierarchy that has only prefetched (or been constructed) has
        // misses but no retired instructions; MPKI must read 0, not NaN
        // or infinity, so report sorting and plotting stay total.
        let mut h = HierarchyStats::default();
        h.llc.misses = 10;
        assert_eq!(h.llc_mpki(), 0.0);
        h.instructions = 2000;
        assert!((h.llc_mpki() - 5.0).abs() < 1e-12);
    }

    /// A single-core run that obeys every law: 100 L1 accesses, 40
    /// reaching L2, 10 reaching the LLC's bank 0.
    fn consistent() -> HierarchyStats {
        let mut bank_accesses = [0; 16];
        bank_accesses[0] = 10;
        HierarchyStats {
            l1: CacheStats {
                hits: 60,
                misses: 40,
                evictions: 30,
                irregular_hits: 5,
                irregular_misses: 20,
                ..Default::default()
            },
            l2: CacheStats {
                hits: 30,
                misses: 10,
                evictions: 8,
                irregular_hits: 10,
                irregular_misses: 9,
                ..Default::default()
            },
            llc: CacheStats {
                hits: 2,
                misses: 8,
                evictions: 9,
                irregular_hits: 1,
                irregular_misses: 7,
                ..Default::default()
            },
            bank_accesses,
            prefetch_fills: 1,
            ..Default::default()
        }
    }

    fn violated(h: &HierarchyStats) -> &'static str {
        h.check().err().map_or("none", |e| e.law)
    }

    #[test]
    fn consistent_stats_pass_the_check() {
        assert_eq!(consistent().check(), Ok(()));
        assert_eq!(HierarchyStats::default().check(), Ok(()));
    }

    #[test]
    fn l1_misses_must_reach_l2() {
        let mut h = consistent();
        h.l2.hits += 1;
        assert_eq!(violated(&h), "l1.misses == l2 accesses");
    }

    #[test]
    fn l2_misses_must_reach_the_llc() {
        let mut h = consistent();
        h.llc.hits += 1;
        h.bank_accesses[0] += 1;
        assert_eq!(violated(&h), "l2.misses == llc accesses");
    }

    #[test]
    fn every_llc_access_is_counted_in_a_bank() {
        let mut h = consistent();
        h.bank_accesses[0] -= 1;
        h.bank_accesses[3] += 2;
        let err = h.check().unwrap_err();
        assert_eq!(err.law, "llc accesses == sum of bank_accesses");
        assert_eq!((err.lhs, err.rhs), (10, 11));
        assert!(err.to_string().contains("bank_accesses"), "{err}");
    }

    #[test]
    fn evictions_never_exceed_fills() {
        let mut h = consistent();
        h.l1.evictions = h.l1.misses + 1;
        assert_eq!(violated(&h), "l1.evictions <= l1.misses");
        let mut h = consistent();
        h.l2.evictions = h.l2.misses + 1;
        assert_eq!(violated(&h), "l2.evictions <= l2.misses");
        let mut h = consistent();
        h.llc.evictions = h.llc.misses + h.prefetch_fills + 1;
        assert_eq!(violated(&h), "llc.evictions <= llc.misses + prefetch_fills");
    }

    #[test]
    fn irregular_counts_are_subsets() {
        let mut h = consistent();
        h.l2.irregular_hits = h.l2.hits + 1;
        assert_eq!(violated(&h), "l2.irregular_hits <= l2.hits");
        let mut h = consistent();
        h.llc.irregular_misses = h.llc.misses + 1;
        assert_eq!(violated(&h), "llc.irregular_misses <= llc.misses");
        let mut h = consistent();
        h.l1.irregular_hits = h.l1.hits + 1;
        assert_eq!(violated(&h), "l1.irregular_hits <= l1.hits");
    }

    #[test]
    fn record_tracks_classes() {
        let mut s = CacheStats::default();
        s.record(true, RegionClass::Irregular);
        s.record(false, RegionClass::Irregular);
        s.record(false, RegionClass::Streaming);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.irregular_hits, 1);
        assert_eq!(s.irregular_misses, 1);
    }

    #[test]
    fn merged_sums() {
        let a = CacheStats {
            hits: 1,
            misses: 2,
            evictions: 3,
            writebacks: 4,
            irregular_hits: 5,
            irregular_misses: 6,
        };
        let m = a.merged(a);
        assert_eq!(m.hits, 2);
        assert_eq!(m.irregular_misses, 12);
    }
}
