//! The next-ref engine (paper Section V-C): the FSM that inspects an
//! eviction set, classifies each way, and picks a replacement candidate.
//! Classification is lazy: the engine asks a [`NextRefSource`] for next
//! references only once no way holds streaming data.
//!
//! Decision procedure, verbatim from the paper: "the next-ref engine uses
//! the irreg_base and irreg_bound registers to first search for a way that
//! does not contain irregData ... reports the first way in the eviction set
//! containing streaming data as the replacement candidate. If all ways in
//! the eviction set contain irregData, then the next-ref engine runs
//! P-OPT's next reference computation for each way ... then searches the
//! next-ref buffer to find the way with the largest next reference
//! value, settling a tie using a baseline replacement policy."

/// The metadata a policy puts behind the engine: where its irregular
/// data lives and how far away each irregular line's next reference is.
/// The engine asks for next references only when it needs them.
pub trait NextRefSource {
    /// Whether `line` holds streaming data (outside every
    /// `irreg_base`/`bound` range) — re-reference distance ∞ by
    /// construction, found without any next-reference computation.
    fn is_streaming(&self, line: u64) -> bool;

    /// Next-reference distance of an irregular `line` (Algorithm 2, or
    /// exact for T-OPT).
    fn next_ref(&mut self, line: u64) -> u32;
}

/// Outcome of a victim search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimChoice {
    /// The first way tied for eviction: the victim unless the decision
    /// is a tie.
    pub way: usize,
    /// Ways tied for eviction; 1 unless quantization produced a tie. The
    /// caller breaks ties with its fallback policy over
    /// [`NextRefEngine::candidates`].
    pub tied: usize,
    /// Number of Rereference Matrix lookups the search performed.
    pub lookups: u64,
}

impl VictimChoice {
    /// Whether quantization produced a tie (Figure 15's tie-rate metric).
    pub fn is_tie(&self) -> bool {
        self.tied > 1
    }
}

/// The next-ref engine. It owns the next-ref buffer the paper gives each
/// per-bank engine, reused across decisions so a victim search allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct NextRefEngine {
    buffer: Vec<u32>,
}

impl NextRefEngine {
    /// Creates an engine.
    pub fn new() -> Self {
        NextRefEngine::default()
    }

    /// Selects replacement candidates among the eviction set's `lines`.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is empty.
    pub fn choose(&mut self, lines: &[u64], source: &mut impl NextRefSource) -> VictimChoice {
        assert!(
            !lines.is_empty(),
            "victim search over an empty eviction set"
        );
        // Step 1: first streaming way wins outright; no matrix lookups are
        // spent on the remaining ways, and no next reference is computed
        // for the ways before it (the hardware's lookups on them are still
        // counted).
        if let Some(w) = lines.iter().position(|&line| source.is_streaming(line)) {
            return VictimChoice {
                way: w,
                tied: 1,
                lookups: w as u64,
            };
        }
        // Step 2: all ways hold irregData; one matrix lookup each.
        self.buffer.clear();
        self.buffer
            .extend(lines.iter().map(|&line| source.next_ref(line)));
        let best = self.buffer.iter().copied().max().unwrap_or(0);
        let way = self.buffer.iter().position(|&r| r == best).unwrap_or(0);
        VictimChoice {
            way,
            tied: self.buffer.iter().filter(|&&r| r == best).count(),
            lookups: lines.len() as u64,
        }
    }

    /// The ways tied in an all-irregular `choice` (the next-ref buffer
    /// slots holding its largest value), in way order. Only meaningful for
    /// the engine's most recent decision.
    pub fn candidates(&self, choice: &VictimChoice) -> impl Iterator<Item = usize> + '_ {
        let best = self.buffer.get(choice.way).copied();
        self.buffer
            .iter()
            .enumerate()
            .filter(move |&(_, &r)| Some(r) == best)
            .map(|(w, _)| w)
    }
}

/// The baseline-policy tie-breaker (the paper settles quantization ties
/// with DRRIP). Maintains RRIP-style recency state per way; among tied
/// candidates the way with the largest RRPV (least recently re-referenced)
/// loses.
#[derive(Debug, Clone)]
pub(crate) struct TieBreaker {
    ways: usize,
    rrpv: Vec<u8>,
}

const TIE_RRPV_MAX: u8 = 3;

impl TieBreaker {
    pub(crate) fn new(sets: usize, ways: usize) -> Self {
        TieBreaker {
            ways,
            rrpv: vec![TIE_RRPV_MAX; sets * ways],
        }
    }

    pub(crate) fn on_hit(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = 0;
    }

    pub(crate) fn on_fill(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = TIE_RRPV_MAX - 1;
    }

    /// Picks the loser among `candidates` (the last of the stalest, in
    /// candidate order); way 0 if `candidates` is empty (callers always
    /// pass at least one way).
    pub(crate) fn break_tie(
        &self,
        set: usize,
        candidates: impl IntoIterator<Item = usize>,
    ) -> usize {
        candidates
            .into_iter()
            .max_by_key(|&w| self.rrpv[set * self.ways + w])
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An eviction set whose line `w` is way `w`: `None` marks a streaming
    /// way, `Some(d)` an irregular way with next reference `d`.
    struct Classes<'a> {
        classes: &'a [Option<u32>],
        next_refs_computed: usize,
    }

    impl NextRefSource for Classes<'_> {
        fn is_streaming(&self, line: u64) -> bool {
            self.classes[line as usize].is_none()
        }

        fn next_ref(&mut self, line: u64) -> u32 {
            self.next_refs_computed += 1;
            self.classes[line as usize].unwrap_or(u32::MAX)
        }
    }

    fn choose(classes: &[Option<u32>]) -> (Vec<usize>, VictimChoice, usize) {
        let lines: Vec<u64> = (0..classes.len() as u64).collect();
        let mut source = Classes {
            classes,
            next_refs_computed: 0,
        };
        let mut engine = NextRefEngine::new();
        let choice = engine.choose(&lines, &mut source);
        let candidates = engine.candidates(&choice).collect();
        (candidates, choice, source.next_refs_computed)
    }

    #[test]
    fn tie_breaker_prefers_stale_ways() {
        let mut tb = TieBreaker::new(1, 4);
        tb.on_fill(0, 0);
        tb.on_fill(0, 1);
        tb.on_hit(0, 1);
        // Way 2 never filled: still at max RRPV -> loses the tie.
        assert_eq!(tb.break_tie(0, [0, 1, 2]), 2);
        // Between a filled and a hit way, the filled (staler) one loses.
        assert_eq!(tb.break_tie(0, [0, 1]), 0);
        // Equally stale ways: the last candidate loses.
        assert_eq!(tb.break_tie(0, [2, 3]), 3);
    }

    #[test]
    fn streaming_ways_are_evicted_first_without_lookups() {
        let (_, choice, computed) = choose(&[Some(5), None, Some(90)]);
        assert_eq!(choice.way, 1);
        assert!(!choice.is_tie());
        assert_eq!(
            choice.lookups, 1,
            "one lookup for the irregular way before it"
        );
        assert_eq!(computed, 0, "no next reference is computed");
    }

    #[test]
    fn furthest_next_ref_wins() {
        let (candidates, choice, computed) = choose(&[Some(5), Some(90), Some(17)]);
        assert_eq!(candidates, vec![1]);
        assert_eq!(choice.way, 1);
        assert!(!choice.is_tie());
        assert_eq!(choice.lookups, 3);
        assert_eq!(computed, 3);
    }

    #[test]
    fn quantization_ties_are_reported() {
        let (candidates, choice, _) = choose(&[Some(7), Some(7), Some(2)]);
        assert_eq!(candidates, vec![0, 1]);
        assert_eq!(choice.tied, 2);
        assert!(choice.is_tie());
    }

    #[test]
    #[should_panic(expected = "empty eviction set")]
    fn empty_sets_are_rejected() {
        choose(&[]);
    }
}
