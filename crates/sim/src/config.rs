use crate::nuca::NucaConfig;

/// Geometry of one set-associative cache.
///
/// # Example
///
/// ```
/// use popt_sim::CacheConfig;
///
/// let llc = CacheConfig::new(256 * 1024, 16);
/// assert_eq!(llc.num_sets(), 256);
/// assert_eq!(llc.num_lines(), 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheConfig {
    size_bytes: usize,
    ways: usize,
}

impl CacheConfig {
    /// Creates a configuration for a cache of `size_bytes` with `ways`-way
    /// associativity and 64 B lines.
    ///
    /// # Panics
    ///
    /// Panics if the size is not a positive multiple of `ways * 64`.
    pub fn new(size_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        assert!(
            size_bytes > 0 && size_bytes.is_multiple_of(ways * popt_trace::LINE_SIZE as usize),
            "cache size must be a positive multiple of ways * line size"
        );
        CacheConfig { size_bytes, ways }
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.ways * popt_trace::LINE_SIZE as usize)
    }

    /// Total number of lines.
    pub fn num_lines(&self) -> usize {
        self.size_bytes / popt_trace::LINE_SIZE as usize
    }

    /// Bytes per way (one "way slice" across all sets) — the unit of
    /// way-partitioned reservation in Section V-A.
    pub fn way_bytes(&self) -> usize {
        self.size_bytes / self.ways
    }
}

/// Configuration of the three-level hierarchy (paper Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Private L2.
    pub l2: CacheConfig,
    /// Shared LLC (total capacity across banks).
    pub llc: CacheConfig,
    /// NUCA banking of the LLC.
    pub nuca: NucaConfig,
    /// Number of LLC ways reserved (way partitioning, e.g. for Rereference
    /// Matrix columns). Victims are only chosen among the remaining ways.
    pub llc_reserved_ways: usize,
}

impl HierarchyConfig {
    /// The paper's Table I hierarchy at full scale: 32 KB/8-way L1,
    /// 256 KB/8-way L2, 24 MB/16-way LLC (8 banks of 3 MB).
    pub fn paper_table1() -> Self {
        HierarchyConfig {
            l1: CacheConfig::new(32 * 1024, 8),
            l2: CacheConfig::new(256 * 1024, 8),
            llc: CacheConfig::new(24 * 1024 * 1024, 16),
            nuca: NucaConfig::uniform(8),
            llc_reserved_ways: 0,
        }
    }

    /// The scaled hierarchy used by the experiments: every level shrunk
    /// ~96× so that the scaled suite graphs exceed the LLC by the same
    /// factor as the paper's graphs exceed 24 MB (DESIGN.md §6). Single
    /// LLC bank (matching the paper's cache-only Pin simulator, which
    /// models serial execution).
    pub fn scaled_table1() -> Self {
        HierarchyConfig {
            l1: CacheConfig::new(8 * 1024, 8),
            l2: CacheConfig::new(32 * 1024, 8),
            llc: CacheConfig::new(256 * 1024, 16),
            nuca: NucaConfig::uniform(1),
            llc_reserved_ways: 0,
        }
    }

    /// Same as [`HierarchyConfig::scaled_table1`] but with an LLC of
    /// `size_bytes` and `ways` (Figure 16 sweeps).
    pub fn scaled_with_llc(size_bytes: usize, ways: usize) -> Self {
        HierarchyConfig {
            llc: CacheConfig::new(size_bytes, ways),
            ..Self::scaled_table1()
        }
    }

    /// A miniature hierarchy for Small-scale suite graphs and unit tests:
    /// preserves the irregular-footprint-to-LLC ratio of the paper (a Small
    /// `urand`'s 64 KB of vertex data against a 16 KB LLC ≈ 4×), so
    /// replacement effects are visible at test speed.
    pub fn small_test() -> Self {
        HierarchyConfig {
            l1: CacheConfig::new(2 * 1024, 4),
            l2: CacheConfig::new(8 * 1024, 8),
            llc: CacheConfig::new(16 * 1024, 16),
            nuca: NucaConfig::uniform(1),
            llc_reserved_ways: 0,
        }
    }

    /// Returns the configuration with `n` LLC ways reserved.
    ///
    /// # Panics
    ///
    /// Panics if `n >= llc.ways()` (at least one data way must remain).
    pub fn with_reserved_ways(mut self, n: usize) -> Self {
        assert!(
            n < self.llc.ways(),
            "cannot reserve all {} LLC ways",
            self.llc.ways()
        );
        self.llc_reserved_ways = n;
        self
    }

    /// Geometry of a single LLC bank.
    ///
    /// # Panics
    ///
    /// Panics if the LLC does not divide evenly across banks.
    pub fn llc_bank(&self) -> CacheConfig {
        let banks = self.nuca.num_banks();
        assert_eq!(
            self.llc.num_sets() % banks,
            0,
            "LLC sets must divide evenly across NUCA banks"
        );
        CacheConfig::new(self.llc.size_bytes() / banks, self.llc.ways())
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::scaled_table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_arithmetic() {
        let c = CacheConfig::new(32 * 1024, 8);
        assert_eq!(c.num_sets(), 64);
        assert_eq!(c.num_lines(), 512);
        assert_eq!(c.way_bytes(), 4096);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn size_must_divide() {
        let _ = CacheConfig::new(1000, 3);
    }

    #[test]
    fn paper_table1_matches_the_paper() {
        let cfg = HierarchyConfig::paper_table1();
        assert_eq!(cfg.llc.size_bytes(), 24 * 1024 * 1024); // 3 MB/core x 8
        assert_eq!(cfg.llc.ways(), 16);
        assert_eq!(cfg.l1.size_bytes(), 32 * 1024);
        assert_eq!(cfg.l2.size_bytes(), 256 * 1024);
        assert_eq!(cfg.nuca.num_banks(), 8);
        // Bank = 3 MB, 3072 sets.
        assert_eq!(cfg.llc_bank().num_sets(), 3072);
    }

    #[test]
    fn scaled_preserves_structure() {
        let cfg = HierarchyConfig::scaled_table1();
        assert_eq!(cfg.llc.ways(), 16);
        assert!(cfg.l1.size_bytes() < cfg.l2.size_bytes());
        assert!(cfg.l2.size_bytes() < cfg.llc.size_bytes());
    }

    #[test]
    fn reserved_ways_bounds() {
        let cfg = HierarchyConfig::scaled_table1().with_reserved_ways(3);
        assert_eq!(cfg.llc_reserved_ways, 3);
    }

    #[test]
    #[should_panic(expected = "cannot reserve")]
    fn reserving_every_way_is_rejected() {
        let _ = HierarchyConfig::scaled_table1().with_reserved_ways(16);
    }
}
