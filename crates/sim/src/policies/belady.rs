//! Belady's MIN (OPT): the clairvoyant upper bound.
//!
//! "Belady's MIN replacement policy is an ideal policy that perfectly
//! captures dynamic, graph-structure-dependent reuse, but it is impractical
//! because it relies on knowledge of future accesses" (paper Section I).
//! In simulation the future *is* available: pass 1 records the LLC-level
//! line stream, a backward scan computes each access's next-use position,
//! and pass 2 replays with this oracle. The LLC sees the same stream in
//! both passes because the upstream L1/L2 behave independently of the LLC
//! policy.

use crate::fasthash::FastMap;
use crate::{AccessMeta, ReplacementPolicy, VictimCtx};

/// Sentinel for "never used again".
const NEVER: u64 = u64::MAX;

/// Computes, for each position in `lines`, the position of that line's next
/// occurrence (or `u64::MAX` if none). `O(n)` backward scan.
pub(crate) fn next_use_positions(lines: &[u64]) -> Vec<u64> {
    let mut next = vec![NEVER; lines.len()];
    let mut last_seen: FastMap<u64, u64> = FastMap::default();
    for (i, (&line, slot)) in lines.iter().zip(&mut next).enumerate().rev() {
        if let Some(pos) = last_seen.insert(line, i as u64) {
            *slot = pos;
        }
    }
    next
}

/// The MIN oracle policy. Must be replayed against the *exact* access
/// stream from which `next_use` was computed.
///
/// # Example
///
/// ```
/// use popt_sim::{policies::Belady, CacheConfig, SetAssocCache};
///
/// // The exact line stream this cache will observe (recorded in pass 1).
/// let stream = [1u64, 2, 3, 1, 2, 3];
/// let cfg = CacheConfig::new(64 * 2, 2);
/// let oracle = Belady::from_trace(cfg.num_sets(), cfg.ways(), &stream);
/// assert_eq!(oracle.trace_len(), 6);
/// let _cache = SetAssocCache::new(cfg, Box::new(oracle));
/// ```
#[derive(Debug, Clone)]
pub struct Belady {
    ways: usize,
    next_use: Vec<u64>,
    /// Position of the access currently being processed.
    pos: u64,
    /// Per (set, way): position of the resident line's next use.
    way_next: Vec<u64>,
}

impl Belady {
    /// Creates the oracle from the recorded LLC line stream of an identical
    /// prior run.
    pub fn from_trace(sets: usize, ways: usize, lines: &[u64]) -> Self {
        Belady {
            ways,
            next_use: next_use_positions(lines),
            pos: 0,
            way_next: vec![NEVER; sets * ways],
        }
    }

    /// Number of accesses the oracle knows about.
    pub fn trace_len(&self) -> usize {
        self.next_use.len()
    }

    /// Records the next use of the access being processed as the next
    /// use of the line now resident in (`set`, `way`).
    fn stamp(&mut self, set: usize, way: usize) {
        let next = (self.pos as usize)
            .checked_sub(1)
            .and_then(|i| self.next_use.get(i))
            .copied()
            .unwrap_or(NEVER);
        if let Some(slot) = self.way_next.get_mut(set * self.ways + way) {
            *slot = next;
        }
    }
}

impl ReplacementPolicy for Belady {
    fn name(&self) -> String {
        "OPT".to_string()
    }

    fn on_access(&mut self, _set: usize, _meta: &AccessMeta) {
        assert!(
            (self.pos as usize) < self.next_use.len(),
            "Belady replayed past its recorded trace"
        );
        self.pos += 1;
    }

    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.stamp(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.stamp(set, way);
    }

    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        let base = ctx.set * self.ways;
        self.way_next
            .get(base..base + ctx.ways.len())
            .and_then(|next| {
                next.iter()
                    .enumerate()
                    .max_by_key(|&(_, &n)| n)
                    .map(|(w, _)| w)
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::{one_set_cache, read};
    use crate::policies::Lru;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn next_use_positions_are_exact() {
        let lines = [5u64, 7, 5, 9, 7, 5];
        assert_eq!(
            next_use_positions(&lines),
            vec![2, 4, 5, NEVER, NEVER, NEVER]
        );
    }

    fn run_policy(ways: usize, trace: &[u64], belady: bool) -> u64 {
        let policy: Box<dyn ReplacementPolicy> = if belady {
            Box::new(Belady::from_trace(1, ways, trace))
        } else {
            Box::new(Lru::new(1, ways))
        };
        let mut c = one_set_cache(ways, policy);
        trace
            .iter()
            .filter(|&&l| c.access(&read(l, 0)).is_hit())
            .count() as u64
    }

    #[test]
    fn belady_on_figure3_scenario() {
        // The 2-way example of Figure 3: accesses S1 S2 S4 S2 S3 S0.
        // MIN evicts S1 when S4 arrives (A) and S2 when S3 arrives (B),
        // giving exactly 1 hit (the second S2).
        let trace = [1u64, 2, 4, 2, 3, 0];
        assert_eq!(run_policy(2, &trace, true), 1);
    }

    #[test]
    fn belady_never_loses_to_lru_on_random_traces() {
        let mut rng = StdRng::seed_from_u64(42);
        for case in 0..20 {
            let len = 500 + case * 37;
            let universe = 4 + (case % 13) as u64 * 3;
            let trace: Vec<u64> = (0..len).map(|_| rng.gen_range(0..universe)).collect();
            for ways in [2usize, 4, 8] {
                let opt = run_policy(ways, &trace, true);
                let lru = run_policy(ways, &trace, false);
                assert!(
                    opt >= lru,
                    "OPT ({opt}) < LRU ({lru}) on case {case} ways {ways}"
                );
            }
        }
    }

    #[test]
    fn belady_handles_cyclic_thrash_optimally() {
        // Cycle of N+1 lines in N ways: MIN hits (N-1)/(N+1) of steady-state
        // accesses; for 4 ways & 5 lines, hit rate approaches 3/5 of
        // accesses after warmup... compute exact optimum by simulation and
        // just require it to far exceed LRU's zero.
        let trace: Vec<u64> = (0..5u64).cycle().take(1000).collect();
        let opt = run_policy(4, &trace, true);
        let lru = run_policy(4, &trace, false);
        assert_eq!(lru, 0);
        assert!(
            opt > 500,
            "MIN should keep most of the cycle resident, got {opt}"
        );
    }

    #[test]
    #[should_panic(expected = "past its recorded trace")]
    fn replaying_past_the_trace_is_detected() {
        let trace = [1u64];
        let mut c = one_set_cache(2, Box::new(Belady::from_trace(1, 2, &trace)));
        c.access(&read(1, 0));
        c.access(&read(2, 0));
    }
}
